(** Poisson variates for the lemma checks (experiment L): Lemma 2.2's
    Poisson lower tail and the non-homogeneous Poisson counts of
    Theorem 2.1's upper-bound proof. *)

val poisson : Rng.t -> rate:float -> int
(** [poisson t ~rate] draws a Poisson variate.  Uses Knuth
    multiplication for small rates and the PTRS transformed-rejection
    sampler (Hörmann, 1993) for [rate >= 10].
    @raise Invalid_argument if [rate < 0]. *)

val nonhomogeneous_count :
  Rng.t -> rate_at:(float -> float) -> a:float -> b:float -> steps:int -> int
(** Arrivals of a non-homogeneous Poisson process on [[a, b)] whose
    rate function is integrated numerically with [steps] midpoint
    slices (Theorem 2.1: the count is Poisson with the integrated
    rate).  Used in tests to cross-check the simulators. *)
