(** Least-squares fits.

    The growth-shape experiments (E5, E6, E7) verify exponents by
    fitting [log y = alpha log x + beta]: a slope near 2 confirms the
    [Theta(n^2)] worst case of Remark 1.4, a slope near 1 confirms
    linear dichotomy legs, etc. *)

type fit = {
  slope : float;
  intercept : float;
  r_squared : float;  (** 1.0 when only two points or a perfect fit *)
}

val log_log : (float * float) list -> fit
(** Ordinary least squares on [(log x, log y)]; the slope is the
    empirical growth exponent.
    @raise Invalid_argument with fewer than two points, zero variance
    in [log x], or a non-positive coordinate. *)
