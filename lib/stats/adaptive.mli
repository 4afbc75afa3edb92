(** Sequential stopping for Monte-Carlo estimation: run replicates in
    chunks and stop as soon as the confidence interval on the mean is
    tight enough, instead of brute-forcing a fixed replicate count.

    This module is pure statistics — it never runs a simulation.  The
    simulation wiring ({!Rumor_sim.Run.async_spread_sweep_adaptive})
    owns the replicate streams and feeds sample values through the
    chunk driver below; keeping the policy here means the serve layer,
    the CLI and the tests all share one stopping rule.

    {b Stopping rule.}  After each chunk the driver computes the
    normal-approximation CI half-width [z(level) * sd / sqrt(used)]
    over the values seen so far (Welford accumulation via {!Stream}),
    and stops once the half-width is at or below the target and at
    least [min_reps] replicates were consumed.  Chow–Robbins-style
    sequential CIs are asymptotically valid; for small samples the
    usual caveat applies — optional stopping eats a little coverage —
    which is why [min_reps] exists and defaults well above 2.

    {b Determinism.}  The decision after chunk [k] is a pure function
    of the first [k] chunk values in index order, so a stopped prefix
    is bit-identical to the same prefix of a fixed-count run — for any
    job count — and checkpoints taken by either remain valid for the
    other. *)

(** Target precision: absolute half-width, or half-width relative to
    the absolute value of the running mean (scale-free — the right
    knob when one setting must cover sweeps of different sizes). *)
type width = Abs of float | Rel of float

type config = {
  width : width;
  level : float;  (** two-sided confidence level, e.g. 0.95 *)
  min_reps : int;  (** never stop before consuming this many replicates *)
  max_reps : int;  (** hard replicate budget *)
  chunk : int;  (** replicates decided between stopping checks *)
}

val config :
  ?level:float -> ?min_reps:int -> ?max_reps:int -> ?chunk:int -> width ->
  config
(** Defaults: [level = 0.95], [min_reps = 16], [max_reps = 4096],
    [chunk = 16].  @raise Invalid_argument on a non-positive width or
    chunk, [level] outside (0, 1), or [min_reps > max_reps]. *)

val z_of_level : float -> float
(** Two-sided normal critical value: [z_of_level 0.95 = 1.9600],
    [z_of_level 0.99 = 2.5758] (Acklam's inverse-normal approximation,
    absolute error < 1.2e-9).  @raise Invalid_argument outside (0,1). *)

val half_width : level:float -> count:int -> sd:float -> float
(** [z(level) * sd / sqrt count]; [infinity] when [count < 2] or [sd]
    is not finite. *)

val target : config -> mean:float -> float
(** Resolve the width spec against the running mean ([Rel] scales by
    [abs mean]; a [Rel] target with mean 0 or nan resolves to 0 — the
    driver then simply cannot converge before the budget). *)

type reason =
  | Converged  (** half-width at or below target *)
  | Budget  (** [max_reps] consumed first *)

type decision = Continue | Stop of reason

val decide :
  config -> consumed:int -> used:int -> mean:float -> sd:float -> decision
(** The stopping rule at a chunk boundary: [consumed] replicates were
    run, [used] of them produced a sample (censored/failed replicates
    consume budget but carry no value).  Pure — this is the function
    whose inputs-in-index-order make adaptive runs schedule
    independent. *)

type result = {
  consumed : int;  (** replicates run (the decided prefix length) *)
  used : int;  (** samples that entered the estimator *)
  mean : float;  (** nan when [used = 0] *)
  sd : float;  (** nan when [used < 2] *)
  half_width : float;  (** at the stopping point; [infinity] if unusable *)
  reason : reason;
  batches : int;  (** chunks executed *)
}

val run :
  config -> sample:(lo:int -> hi:int -> float option array) -> result
(** Generic chunk driver: requests replicate values for index ranges
    [[lo, hi)] ([hi - lo <= chunk], clamped at the budget), feeds the
    [Some] values into the running moments in index order, and applies
    {!decide} after each chunk.  [None] entries are censored/failed
    replicates.  The sampler must be index-deterministic for the
    prefix contract to mean anything. *)

(** {1 Control variates}

    Given per-replicate controls [c_i] with known expectation
    [control_mean], the adjusted sample [y_i - beta (c_i - control_mean)]
    has the same mean as [y] and, when [y] and [c] correlate, a smaller
    variance — the regression estimator with
    [beta = Cov(y, c) / Var(c)].  The simulation layer derives controls
    from the closed forms the constructed families carry (see
    {!Rumor_sim.Run.rao_blackwell_time}). *)

type cv = {
  beta : float;
  adjusted : float array;
  mean : float;  (** mean of [adjusted] *)
  sd : float;  (** sample sd of [adjusted] *)
  variance_ratio : float;
      (** [Var y / Var adjusted] — the replicate-savings factor at
          equal CI width; [1.] when the control is useless or
          degenerate *)
}

val control_variate :
  ?control_mean:float -> values:float array -> controls:float array -> unit ->
  cv
(** [control_mean] defaults to [0.] (an exactly-centred control, e.g. a
    martingale residual).  Degenerate inputs (fewer than 2 samples,
    zero control variance, non-finite moments) fall back to
    [beta = 0] — the unadjusted estimator — rather than raising.
    @raise Invalid_argument on length mismatch. *)

(** {1 Stratified allocation}

    Neyman allocation: given per-stratum standard deviations, spend a
    replicate budget proportionally to [sd] (the variance-optimal split
    for an equal-weight stratified mean). *)

module Strata : sig
  val neyman : budget:int -> min_per:int -> sds:float array -> int array
  (** Largest-remainder rounding of the Neyman proportions, after
      granting every stratum [min_per]; all-zero (or non-finite) sds
      degrade to an even split.  The result always sums to
      [max budget (min_per * strata)].
      @raise Invalid_argument on an empty [sds], negative budget or
      negative [min_per]. *)

  val combine :
    level:float -> means:float array -> sds:float array ->
    counts:int array -> float * float
  (** Equal-weight stratified estimate: [(mean, half_width)] where the
      mean averages the per-stratum means and the half-width propagates
      the per-stratum standard errors
      ([z/K * sqrt (sum sd_k^2 / n_k)]).  Strata with [counts < 2]
      make the half-width [infinity].
      @raise Invalid_argument on length mismatch or empty input. *)
end
