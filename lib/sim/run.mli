(** Monte-Carlo driver: repeated independent runs over index-keyed RNG
    streams, executed on a chunked Domain pool
    ({!Rumor_par.Pool}), with spread-time samples ready for the
    statistics layer.

    Every "with high probability" claim in the paper is validated by
    looking at high quantiles of these samples.

    {b Split-seed determinism.}  Each runner draws one 64-bit [base]
    from the parent RNG, and replicate [r] runs on
    [Rng.derive base r] — a pure function of [(base, r)].  The sample
    is therefore {e bit-identical for any} [jobs] {e count} (including
    under fault plans, which draw from the replicate's own stream),
    stable under changing [reps] (prefix property), and reproducible
    across checkpoint/resume (missing indices re-derive the same
    streams).  [jobs] defaults to {!Rumor_par.Pool.default_jobs}
    ([--jobs] / [RUMOR_JOBS] / processor count); [jobs = 1] degrades
    to a plain sequential loop.

    Two tiers of runner:

    - The classic samplers ({!async_spread_times} and friends) return a
      bare {!mc}; a raising replicate propagates (after every worker
      domain has joined, lowest-domain exception first).
    - The {e hardened} sweep ({!async_spread_sweep}) isolates replicate
      exceptions as [Failed] outcomes, caps runaway replicates through
      the engines' event-budget watchdog, and checkpoints replicate
      outcomes to disk keyed by split-RNG fingerprint (a pure function
      of the sweep seed and the replicate index) so an interrupted
      sweep resumes bit-identically.

    Metrics are recorded through per-domain shards
    ({!Rumor_obs.Metrics.Shard}) merged once the pool returns, so
    counter totals and histogram snapshots are byte-identical for any
    [jobs]. *)

open Rumor_rng
open Rumor_dynamic
open Rumor_faults

type engine = Cut | Tick

type mc = {
  times : float array;
      (** one spread time per repetition; incomplete (censored) runs
          contribute the time they reached — the horizon value — as
          the classic convention *)
  completed : int;  (** repetitions that informed every node *)
  reps : int;
}

type outcome = Checkpoint.outcome =
  | Finished of float
  | Censored of float
  | Failed of string

type sweep = {
  outcomes : outcome array;  (** one per repetition, in repetition order *)
  seeds : int64 array;  (** checkpoint key of each repetition's RNG *)
}

val source_of : Dynet.t -> int option -> int
(** Resolve an explicit source against the network's hint (explicit
    argument wins; hint next; node 0 otherwise). *)

(** {1 Per-replicate wall-clock deadlines}

    The supervised campaign harness (lib/harness) bounds every
    replicate's wall-clock time: an expired replicate is censored via
    the engines' cooperative [stop] brake, recorded in the
    [harness.deadline_censored] counter, and fed to the
    censoring-aware {!Estimate} path like any other censored sample.
    Deadline censoring is the one machine-dependent censoring source,
    so it is always explicit and excluded from the bit-identity
    contract (a run that trips no deadline remains bit-identical). *)

val set_default_deadline : float option -> unit
(** Install (or with [None] clear) a process-wide per-replicate
    deadline in seconds, applied by the async runners below when no
    explicit [?deadline_s] is given — this is how [rumor campaign
    --deadline] reaches replicates inside experiment code.
    @raise Invalid_argument if the value is [<= 0]. *)

val default_deadline : unit -> float option

val async_spread_times :
  ?jobs:int ->
  ?reps:int ->
  ?horizon:float ->
  ?engine:engine ->
  ?protocol:Protocol.t ->
  ?rate:float ->
  ?faults:Fault_plan.t ->
  ?source:int ->
  ?deadline_s:float ->
  Rng.t ->
  Dynet.t ->
  mc
(** [async_spread_times rng net] runs the asynchronous algorithm
    [reps] (default 30) times with engine [Cut] by default; [protocol]
    (default push-pull), the clock [rate] (default 1) and the fault
    plan apply to either engine.  Replicates execute on [jobs] worker
    domains (default {!Rumor_par.Pool.default_jobs}); each repetition
    gets the index-keyed child stream described above, so the sample
    does not depend on [jobs] and is stable under changing [reps].
    Repetitions share no mutable state (each spawns its own [Dynet]
    instance).  A replicate exception propagates only after every
    spawned domain has joined.  [deadline_s] (default
    {!default_deadline}) censors any replicate whose wall-clock time
    exceeds it.
    @raise Invalid_argument if [jobs < 1]. *)

val async_spread_sweep :
  ?jobs:int ->
  ?reps:int ->
  ?horizon:float ->
  ?engine:engine ->
  ?protocol:Protocol.t ->
  ?rate:float ->
  ?faults:Fault_plan.t ->
  ?source:int ->
  ?max_events:int ->
  ?checkpoint:string ->
  ?deadline_s:float ->
  Rng.t ->
  Dynet.t ->
  sweep
(** Hardened Monte-Carlo sweep on the same pool (same
    bit-identical-sample guarantee for any [jobs]):

    - {b exception isolation} — a replicate that raises is recorded as
      [Failed] with the printed exception and the sweep carries on; the
      sweep itself never raises because of a replicate, and every
      chunk is always awaited ([Fun.protect]).
    - {b watchdog} — [max_events] bounds each replicate's event count
      (see the engines' [max_events]); a capped replicate degrades to a
      [Censored] outcome carrying the time it reached.
    - {b checkpoint/resume} — with [checkpoint:path], decided outcomes
      are serialized to [path] keyed by each replicate's split-RNG
      fingerprint, itself a pure function of the sweep seed and the
      replicate {e index} (no sequential cursor; incrementally in
      sequential mode, and always on the way out — including the
      exception path).  A later sweep with the same parent RNG seed
      reuses them — whatever scattered subset of indices was decided,
      and whatever [jobs] either sweep uses — and re-runs only the
      missing replicates, reproducing bit-identical samples to an
      uninterrupted sweep.
    - {b deadline} — [deadline_s] (default {!default_deadline}) bounds
      each replicate's wall-clock time via the engines' cooperative
      [stop] brake; an expired replicate degrades to [Censored] and is
      tallied in [harness.deadline_censored].

    @raise Invalid_argument if [jobs < 1] or [reps < 1]. *)

(** {1 Adaptive sequential stopping}

    The adaptive sweep runs the {e same} replicates as
    {!async_spread_sweep} — one parent draw, index-derived child
    streams, identical per-replicate code — but in chunks, stopping as
    soon as the normal-approximation CI half-width over the finished
    prefix reaches the {!Rumor_stats.Adaptive.config} target (or the
    [max_reps] budget runs out).  Because the stopping decision is a
    pure function of outcomes in index order, the decided prefix is
    bit-identical to the same prefix of a fixed-count sweep seeded
    identically, for any job count — so checkpoints, the serve store
    and campaign WAL replay all remain valid across the two modes. *)

val set_default_adaptive : Rumor_stats.Adaptive.config option -> unit
(** Install (or with [None] clear) a process-wide adaptive config,
    picked up by {!Rumor_experiments.Workloads.measure_async}-style
    funnels the way {!set_default_deadline} reaches buried replicate
    loops.  [None] (the default) keeps every existing path
    byte-identical. *)

val default_adaptive : unit -> Rumor_stats.Adaptive.config option

val rao_blackwell_time :
  ?protocol:Protocol.t ->
  ?rate:float ->
  Rumor_graph.Graph.t ->
  informed_times:float array ->
  float
(** [rao_blackwell_time g ~informed_times] is the conditional
    expectation of the spread time given the informing {e order}: the
    sum over informing events of [1/R(S)], where [R(S)] is the total
    informing rate out of informed set [S] on static graph [g] under
    [protocol] (default push–pull) and clock [rate] (default 1) —
    rebuilt with the engine's own {!Async_cut.pair_rate}.  On a
    fault-free static network the observed time minus this value is an
    exactly zero-mean martingale residual, the control variate behind
    [?control] below.  Returns [nan] for incomplete trajectories (any
    non-finite entry) or trajectories impossible on [g] (an informing
    event from a zero-rate cut).
    @raise Invalid_argument on a length mismatch. *)

type adaptive = {
  sweep : sweep;
      (** the decided prefix: outcomes and seeds for replicates
          [0 .. consumed-1], bit-identical to the same prefix of a
          fixed-count sweep *)
  consumed : int;  (** replicates run *)
  used : int;  (** [Finished] replicates that entered the estimator *)
  mean : float;
      (** mean spread time over the finished prefix — control-variate
          adjusted when [control] is present ([nan] when [used = 0]) *)
  sd : float;  (** matching sample sd ([nan] below 2 samples) *)
  half_width : float;  (** CI half-width at the stopping point *)
  target_width : float;  (** the resolved width target *)
  level : float;
  reason : Rumor_stats.Adaptive.reason;
  batches : int;
  max_reps : int;  (** the budget ([= consumed] when [reason = Budget]) *)
  control : Rumor_stats.Adaptive.cv option;
      (** regression-estimator report (beta, variance ratio) when a
          usable control graph was supplied *)
}

val async_spread_sweep_adaptive :
  ?jobs:int ->
  ?horizon:float ->
  ?engine:engine ->
  ?protocol:Protocol.t ->
  ?rate:float ->
  ?faults:Fault_plan.t ->
  ?source:int ->
  ?max_events:int ->
  ?checkpoint:string ->
  ?deadline_s:float ->
  ?control:Rumor_graph.Graph.t ->
  config:Rumor_stats.Adaptive.config ->
  Rng.t ->
  Dynet.t ->
  adaptive
(** Sequentially stopped variant of {!async_spread_sweep} (same
    hardening: exception isolation, watchdog, checkpoint, deadline).
    Censored and failed replicates consume budget but carry no sample;
    an all-censored sweep therefore stops only at the budget, with
    [mean = nan] — never a silently understated estimate.

    [control] supplies the static graph the network is known to
    simulate (see {!Rumor_dynamic.Family.static_graph}): each finished
    replicate's {!rao_blackwell_time} residual then drives a
    regression control variate, shrinking the CI — and the stopping
    point — without biasing the mean.  The control changes which
    prefix is {e decided}, never the replicate values themselves.
    @raise Invalid_argument when [control] is combined with [faults]
    (the closed-form rates no longer hold) or with [checkpoint]
    (cached outcomes carry no trajectory to replay), or when the
    control graph's order differs from the network's. *)

val sweep_counts : sweep -> int * int * int
(** [(finished, censored, failed)] outcome counts. *)

val usable_times : sweep -> float array
(** Spread times of the [Finished] replicates only, in repetition
    order — the hardened convention: censored replicates are {e
    excluded} (their recorded times understate the truth), unlike the
    classic {!mc}[.times] which includes them at the horizon value. *)

val quantiles_of_sweep : sweep -> float list -> float array
(** [quantiles_of_sweep s points] — empirical quantiles of
    {!usable_times} at each point of [points] (in [[0,1]], in the
    given order); [[||]] when no replicate finished.  This is the
    summary the serve layer caches, so its definition lives here,
    beside the sweep, where offline and served paths share it. *)

val first_failure : sweep -> string option
(** The first recorded [Failed] message, if any. *)

val mc_of_sweep : sweep -> mc
(** Collapse to the classic sample: [Finished] and [Censored] times
    (censored replicates contribute the time they reached, as the
    classic runner's horizon convention does); [Failed] replicates are
    dropped, so [reps] shrinks accordingly. *)

val sync_spread_rounds :
  ?jobs:int ->
  ?reps:int ->
  ?max_rounds:int ->
  ?protocol:Protocol.t ->
  ?faults:Fault_plan.t ->
  ?source:int ->
  Rng.t ->
  Dynet.t ->
  mc
(** Same driver for the synchronous algorithm; times are round
    counts. *)

val flooding_rounds :
  ?jobs:int ->
  ?reps:int ->
  ?max_rounds:int ->
  ?source:int ->
  Rng.t ->
  Dynet.t ->
  mc
