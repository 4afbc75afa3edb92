(** A spread-time query: the complete, serializable description of one
    Monte-Carlo sweep — family, size, protocol knobs, fault plan,
    replicate count and the quantile points to report.

    The canonical compact-JSON rendering ({!to_json}) is the
    input of the cache {!key}, so two queries collide exactly when they
    would run the same sweep: unknown wire fields ([op], [stream])
    are dropped by {!of_json} and field order is fixed.  Execution
    ({!sweep}) goes through {!Rumor_sim.Run.async_spread_sweep} with
    [Rng.create seed], inheriting its split-seed determinism: the
    served sample is bit-identical to the offline CLI's for the same
    query, for any [jobs], and a [reps]-prefix of any larger run. *)

module Json = Rumor_obs.Json
module Family = Rumor_dynamic.Family
module Protocol = Rumor_sim.Protocol
module Run = Rumor_sim.Run
module Fault_plan = Rumor_faults.Fault_plan

type t = {
  family : string;  (** lower-case, one that {!Family.is_known} accepts *)
  n : int;
  rho : float;
  degree : int;
  p : float;
  q : float;
  protocol : Protocol.t;
  engine : Run.engine;
  rate : float;
  reps : int;
  horizon : float;
  seed : int;
  max_events : int option;
  loss : float;
  crash : float;
  recover : float;
  slow_frac : float;
  slow_rate : float;
  part_from : int;
  part_until : int;
  part_frac : float;
  points : float list;  (** quantile points, each in [[0,1]] *)
  ci_width : float option;
      (** adaptive stopping: stop the sweep at the first chunk boundary
          where the CI half-width on the mean spread time reaches this
          absolute target ([reps] stays the budget).  [None] (the default) is
          the fixed-count path.  Rendered into the canonical form only
          when present, so every pre-adaptive query keeps its
          fingerprint — old stores stay warm. *)
  ci_level : float;  (** confidence level of the stopping CI (0.95) *)
}

val default : family:string -> n:int -> t
(** The CLI's defaults: push–pull on the cut engine, rate 1, 30
    replicates, seed 2020, no faults, points [[0.5; 0.9; 0.99]]. *)

val to_json : t -> Json.t
(** Canonical rendering (fixed field order; [max_events] omitted when
    [None]; [ci_width], [ci_level] and [ci_cadence] only when
    [ci_width] is set) — the fingerprint input. *)

val of_json : Json.t -> (t, string) result
(** Parse a wire query: [family] and [n] are required, everything else
    defaults; unknown fields are ignored.  Validates. *)

val key : t -> string
(** A 64-bit FNV/SplitMix fold of the canonical {!to_json} rendering,
    as 16 hex digits — the cache key.

    One key, one answer: no [Server.config] field is in the
    fingerprint, and none can change the served sample.
    - [dir]: where the store and checkpoints live, not what they hold.
    - [host], [port], [read_timeout_s]: transport only.
    - [queue_cap]: a shed query gets no answer, never a different one.
    - [cache_cap]: an evicted entry is recomputed bit-identically.
    - [jobs]: replicate streams are split-seed, identical for any job
      count.
    - [chunk]: paces partials and checkpoint saves of fixed-count
      queries, whose sample does not depend on chunking (prefix
      property); a [ci_width] query checks its stopping rule every
      [ci_cadence] = 16 replicates, not every [chunk].
    - [throttle_s]: a test hook that sleeps between chunks.
    - [max_n], [max_reps]: reject a query outright, never alter it.
    - [fsync]: durability only. *)

val family_params : t -> Family.params

val sweep :
  ?jobs:int ->
  ?checkpoint:string ->
  ?reps:int ->
  ?chunk:int ->
  ?on_chunk:(Run.sweep -> unit) ->
  t ->
  Run.sweep
(** Run (or resume) the query's sweep; [reps] overrides [q.reps] (by
    the prefix property a smaller [reps] gives a prefix of the full
    sample).  [chunk] and [on_chunk] are passed to the chunk loop (see
    {!Rumor_sim.Run.async_spread_sweep}); the server streams partials
    through them.

    A query with [ci_width = Some w] runs
    {!Rumor_sim.Run.async_spread_sweep_adaptive} with
    [Adaptive.config ~level:ci_level ~min_reps:(min 16 reps)
    ~max_reps:reps ~chunk:16 (Abs w)] and returns its decided prefix.
    It ignores [chunk]: its stopping point, like its key, is a function
    of the query alone, and [on_chunk] fires every 16 replicates (the
    [ci_cadence] rendered into the query's canonical form). *)
