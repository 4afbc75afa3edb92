(** Sample quantiles (linear interpolation, type-7 as in R) and
    empirical tail probabilities.

    "With high probability" claims are validated by looking at high
    quantiles of the measured spread time across Monte-Carlo seeds;
    Theorem 1.7(iii) bounds the tail [Pr(spread > 2k)] on the dynamic
    star, and experiment E8 compares the empirical tail against the
    analytic envelope. *)

val quantile : float array -> float -> float
(** [quantile xs q] for [q] in [[0, 1]]; sorts a copy internally.
    @raise Invalid_argument on an empty sample or [q] outside
    [[0, 1]]. *)

val quantiles : float array -> float list -> float list
(** Multiple quantiles from a single sort. *)

val empirical_tail : float array -> float -> float
(** [empirical_tail xs x] is the fraction of samples strictly greater
    than [x]. @raise Invalid_argument on an empty sample. *)
