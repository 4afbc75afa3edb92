(** Descriptive statistics over float samples.

    Sums use Kahan compensation so the Monte-Carlo aggregations stay
    stable across tens of thousands of repetitions. *)

val mean : float array -> float
(** @raise Invalid_argument on the empty array. *)

val variance : float array -> float
(** Unbiased sample variance (divides by [n-1]); [0.] on a singleton.
    @raise Invalid_argument on the empty array. *)

val stddev : float array -> float

val std_error : float array -> float
(** Standard error of the mean, [stddev / sqrt n]. *)

val min : float array -> float
(** @raise Invalid_argument on the empty array. *)

val max : float array -> float
(** @raise Invalid_argument on the empty array. *)
