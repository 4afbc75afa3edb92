(** Fixed-capacity mutable bit sets over [0, capacity).

    Used throughout the simulators to represent the informed-node set
    {i I_tau}.  All operations besides [copy], [to_list] and [fold] are
    O(1) or O(capacity/64). *)

type t

val create : int -> t
(** [create n] is an empty set over universe [{0, ..., n-1}].
    @raise Invalid_argument if [n < 0]. *)

val capacity : t -> int
(** Size of the universe the set ranges over. *)

val cardinal : t -> int
(** Number of members; maintained incrementally, O(1). *)

val mem : t -> int -> bool
(** [mem s i] tests membership. @raise Invalid_argument if [i] is out of
    range. *)

val add : t -> int -> bool
(** [add s i] inserts [i]; returns [true] iff [i] was not already a
    member. *)

val remove : t -> int -> bool
(** [remove s i] deletes [i]; returns [true] iff [i] was a member. *)

val copy : t -> t
(** Independent copy. *)

val iter : (int -> unit) -> t -> unit
(** Iterate members in increasing order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over members in increasing order. *)

val to_list : t -> int list
(** Members in increasing order. *)

val is_full : t -> bool
(** [is_full s] iff every element of the universe is a member. *)
