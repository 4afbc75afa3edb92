(** One-pass streaming moments (Welford), for consumers — the load
    generator, long-lived servers — that cannot hold every sample.

    Constant memory, numerically stable: the incremental mean update
    avoids the catastrophic cancellation of the naive
    [sum-of-squares - mean^2] formula.  Not thread-safe; confine one
    accumulator to one domain. *)

type t

val create : unit -> t

val add : t -> float -> unit

val mean : t -> float
(** [nan] when empty. *)

val variance : t -> float
(** Unbiased (n-1) sample variance; [nan] below two samples. *)

val stddev : t -> float
(** [sqrt variance]; [nan] below two samples. *)

val max : t -> float
(** [nan] when empty. *)
