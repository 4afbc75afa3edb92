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

val record_ns : t -> int -> unit
(** Manually account a duration measured elsewhere. *)

val count : t -> int

val total_s : t -> float

val name : t -> string

val snapshot : unit -> Json.t

val reset : unit -> unit
