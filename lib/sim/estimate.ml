open Rumor_dynamic
module Obs = Rumor_obs.Metrics

(* Telemetry (lib/obs). *)
let m_calls = Obs.counter "estimate.calls"
let m_censored_quantiles = Obs.counter "estimate.censored_quantiles"

type t = {
  point : float;
  ci_low : float;
  ci_high : float;
  q : float;
  samples : float array;
  completed : int;
  censored : int;
  reps : int;
}

let whp_quantile ~n =
  if n < 2 then 0.5 else Float.min 0.999 (1. -. (1. /. float_of_int n))

(* The top [censored] order statistics are right-censored at the
   horizon: the true spread times exceed the recorded values.  A
   type-7 quantile interpolates between the order statistics at
   floor(h) and ceil(h) with h = q(reps-1); whenever ceil(h) reaches
   into the censored block the "estimate" is only a lower bound, so it
   must be flagged, not silently reported. *)
let quantile_censored ~reps ~censored q =
  censored > 0
  &&
  let h = q *. float_of_int (reps - 1) in
  int_of_float (Float.ceil h) >= reps - censored

let spread_time ?jobs ?(reps = 200) ?q ?horizon ?engine ?protocol ?rate ?faults
    ?(level = 0.95) ?source rng (net : Dynet.t) =
  let q = match q with Some q -> q | None -> whp_quantile ~n:net.Dynet.n in
  let mc =
    Run.async_spread_times ?jobs ~reps ?horizon ?engine ?protocol ?rate ?faults
      ?source rng net
  in
  let samples = mc.Run.times in
  let completed = mc.Run.completed in
  let censored = mc.Run.reps - completed in
  Obs.incr m_calls;
  if quantile_censored ~reps:mc.Run.reps ~censored q then begin
    Obs.incr m_censored_quantiles;
    (* The requested quantile falls inside the censored mass: the
       finite sample quantile is a lower confidence bound, the point
       estimate and upper bound are unknown (infinite). *)
    {
      point = Float.infinity;
      ci_low = Rumor_stats.Quantile.quantile samples q;
      ci_high = Float.infinity;
      q;
      samples;
      completed;
      censored;
      reps = mc.Run.reps;
    }
  end
  else begin
    let point = Rumor_stats.Quantile.quantile samples q in
    let ci_low, ci_high =
      Rumor_stats.Bootstrap.ci rng
        ~statistic:(fun xs -> Rumor_stats.Quantile.quantile xs q)
        samples ~level
    in
    { point; ci_low; ci_high; q; samples; completed; censored; reps = mc.Run.reps }
  end
