(** Empirical "spread time" in the paper's sense.

    The paper defines the spread time as the first time by which all
    nodes are informed {e with high probability} (failure probability
    [n^-c]).  Empirically that is a high quantile of the Monte-Carlo
    spread-time sample; this module packages the estimation with a
    bootstrap confidence interval so experiment conclusions carry
    uncertainty. *)

open Rumor_rng
open Rumor_dynamic
open Rumor_faults

type t = {
  point : float;
      (** the [q]-quantile point estimate; [infinity] when the
          requested quantile falls inside the censored mass (see
          below) *)
  ci_low : float;
      (** bootstrap lower bound; when [point] is infinite this is the
          finite sample quantile — a lower confidence bound for the
          unknown spread time *)
  ci_high : float;  (** bootstrap upper bound ([infinity] when flagged) *)
  q : float;  (** quantile used *)
  samples : float array;  (** the underlying spread-time sample *)
  completed : int;
  censored : int;
      (** horizon-censored (incomplete) repetitions: their recorded
          times understate the true spread time *)
  reps : int;
}

val spread_time :
  ?jobs:int ->
  ?reps:int ->
  ?q:float ->
  ?horizon:float ->
  ?engine:Run.engine ->
  ?protocol:Protocol.t ->
  ?rate:float ->
  ?faults:Fault_plan.t ->
  ?level:float ->
  ?source:int ->
  Rng.t ->
  Dynet.t ->
  t
(** [spread_time rng net] runs [reps] (default 200) repetitions and
    estimates the [q]-quantile with a bootstrap [level] (default 0.95)
    confidence interval.  The default [q] matches the paper's w.h.p.
    convention at finite [n]: [1 - 1/n], clamped to [0.999] ([0.5]
    below two nodes).  [rate] and
    [faults] are forwarded to the engine (the E13 thinning self-check
    compares loss [p] against rate [1-p]); [jobs] is forwarded to the
    replicate pool (the estimate is bit-identical for any value).

    Horizon-censored repetitions are right-censored samples, {e not}
    observations: when the requested quantile's interpolation touches
    the censored mass the point estimate is flagged as [infinity]
    (with [ci_low] the finite sample quantile, a lower bound) instead
    of silently understating the spread time; otherwise censoring
    cannot move the quantile and the usual estimate is returned with
    [censored] surfaced. *)
