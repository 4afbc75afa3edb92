(** Percentile-bootstrap confidence intervals.

    Used by the experiment harness when the Monte-Carlo sample of
    spread times is small or skewed (so a normal-approximation
    interval would be dubious). *)

open Rumor_rng

val ci :
  ?replicates:int ->
  Rng.t ->
  statistic:(float array -> float) ->
  float array ->
  level:float ->
  float * float
(** [ci rng ~statistic xs ~level] resamples [xs] with replacement
    (default 1000 replicates), evaluates [statistic] on each resample
    and returns the central [level] percentile interval (e.g.
    [~level:0.95]).
    @raise Invalid_argument on an empty sample or a level outside
    (0, 1). *)
