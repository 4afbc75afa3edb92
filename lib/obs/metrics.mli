(** Process-wide performance counters, gauges and fixed-bucket
    histograms.

    The registry is global so that instrumentation points scattered
    across the engines, the Monte-Carlo runners and the checkpointing
    layer all feed one snapshot, written into run manifests by
    {!Sink}.

    {b Overhead policy.}  The subsystem is disabled by default; every
    recording entry point ([add], [incr], [set], [observe]) is a
    single atomic-bool load and branch when disabled, and the engines
    batch per-run tallies in plain record fields, flushing once per
    run — so the simulation hot paths are unaffected (< 3% on the
    cut-engine micro-bench even when {e enabled}, unmeasurable when
    disabled).  Recording never touches any RNG: seeded runs are
    draw-for-draw identical with the subsystem on or off.

    {b Domain safety.}  Cells are [Atomic.t]s; registration is
    idempotent and mutex-guarded, so handles may be created from any
    domain (module-initialisation time is typical) and recorded to
    concurrently from the domain-parallel runners. *)

val enabled : unit -> bool

val enable : unit -> unit

val disable : unit -> unit

(** {1 Counters} — monotone event tallies *)

type counter

val counter : string -> counter
(** Register (or fetch) the counter with this name.  Dotted names by
    convention, e.g. ["async_cut.events"]. *)

val incr : counter -> unit
(** No-op while the subsystem is disabled (likewise [add], [set],
    [observe]). *)

val add : counter -> int -> unit

val value : counter -> int

(** {1 Gauges} — last-write-wins instantaneous values *)

type gauge

val gauge : string -> gauge

val set : gauge -> float -> unit

val gauge_value : gauge -> float

(** {1 Histograms} — fixed bucket bounds chosen at registration *)

type histogram

val histogram : ?buckets:float array -> string -> histogram
(** [buckets] are strictly increasing upper bounds; one overflow
    bucket is appended implicitly.  On re-registration the existing
    histogram is returned and [buckets] is ignored.
    @raise Invalid_argument if [buckets] is empty or not increasing. *)

val observe : histogram -> float -> unit

(** {1 Shards} — per-domain accumulators for the parallel runners *)

(** A shard is an unshared batch of counter deltas and histogram
    observations.  The domain-parallel Monte-Carlo runners give each
    worker domain its own shard, record per-replicate tallies into it
    (no atomics, no sharing, no allocation after the first touch of
    each handle), and {!Shard.merge} every shard once the domains have
    joined.  Merged totals are {e exactly} equal to direct recording —
    counter addition and bucket increments commute — so snapshots are
    byte-identical for any job count.

    A shard must only ever be touched by one domain at a time;
    creating one per worker is the intended pattern. *)
module Shard : sig
  type t

  val create : unit -> t

  val incr : t -> counter -> unit
  (** No-op while the subsystem is disabled, like the global entry
      points (likewise [observe]). *)

  val observe : t -> histogram -> float -> unit

  val merge : t -> unit
  (** Flush every accumulated delta into the global registry and zero
      the shard (it can be reused).  Call after the owning domain has
      joined.  Not gated on the enabled flag: whatever was recorded is
      never dropped. *)
end

(** {1 Snapshots} *)

val snapshot : unit -> Json.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {...}}], all
    name-sorted — deterministic, diffable. *)

val reset : unit -> unit
(** Zero every registered cell (handles stay valid).  For tests and
    for section boundaries in a benchmark run. *)
