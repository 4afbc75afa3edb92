(** Walker/Vose alias method: O(1) sampling from a fixed discrete
    distribution after O(n) preprocessing.

    The engines sample the evolving cut through a Fenwick tree
    (weights change every event); the alias table is the right tool
    when a distribution is fixed across many draws — workload
    generators and tests use it. *)

type t

val create : float array -> t
(** [create weights] preprocesses non-negative weights (not necessarily
    normalised).
    @raise Invalid_argument if the array is empty, any weight is
    negative or non-finite, or all weights are zero. *)

val sample : t -> Rng.t -> int
(** Index drawn with probability proportional to its weight. *)
