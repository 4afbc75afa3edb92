(** Monotonic-clock timing scopes — profile engine phases and
    Monte-Carlo workers without a profiler.

    Accumulators are atomic and process-wide (same registry discipline
    as {!Metrics}): any domain may time into any span concurrently.
    Timing is gated on {!Metrics.enabled}, so a disabled build pays
    one bool load per scope. *)

type t

val create : string -> t
(** Register (or fetch) the span with this name; idempotent. *)

val time : t -> (unit -> 'a) -> 'a
(** Run the thunk, accumulating its monotonic duration (also on
    exceptions).  When the subsystem is disabled the thunk is invoked
    directly — no clock reads. *)

val snapshot : unit -> Json.t
(** Every registered span as [{"<name>": {"count", "total_s"}}], the
    form run manifests record. *)

val reset : unit -> unit
(** Zero every span (handles stay valid). *)
