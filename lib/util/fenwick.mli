(** Fenwick (binary indexed) tree over non-negative float weights.

    Backs the fast asynchronous engine: each uninformed node carries
    its incident cut rate, and sampling the next informed node is a
    prefix-sum search — O(log n) update and sample instead of an O(n)
    scan per event. *)

type t

val create : int -> t
(** [create n]: [n] slots, all zero. *)

val get : t -> int -> float
(** Current weight of a slot. *)

val set : t -> int -> float -> unit
(** Overwrite a slot's weight. @raise Invalid_argument if the weight is
    negative or not finite. *)

val add_many : t -> int array -> float array -> int -> unit
(** [add_many t slots deltas k] adds [deltas.(j)] to the weight of slot
    [slots.(j)] for [j = 0 .. k-1], in that order.  Each result must
    stay [>= -1e-9]; tiny negative residue from float cancellation is
    clamped to zero.  Allocates nothing (a separately compiled caller
    would otherwise pass each float boxed): the engines' per-neighbour
    updates go through here.
    @raise Invalid_argument if [k] exceeds either array's length. *)

val set_many : t -> int array -> float array -> int -> unit
(** [set_many t slots weights k] is [set t slots.(j) weights.(j)] for
    [j = 0 .. k-1], in that order; allocation-free like {!add_many}.
    @raise Invalid_argument as {!add_many} and {!set} do. *)

val total : t -> float
(** Sum of all weights. *)

val prefix_sum : t -> int -> float
(** [prefix_sum t i] is the sum of slots [0..i] inclusive. *)

val find : t -> float -> int
(** [find t x] with [0 <= x < total t] returns the smallest index [i]
    such that [prefix_sum t i > x] — i.e. samples proportionally when
    [x] is uniform on [[0, total)).
    @raise Invalid_argument if the total is zero. *)

val fill_from : t -> float array -> unit
(** Bulk-load weights in O(n). @raise Invalid_argument on a length
    mismatch or invalid weight. *)
