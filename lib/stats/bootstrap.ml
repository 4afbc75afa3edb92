open Rumor_rng

let ci ?(replicates = 1000) rng ~statistic xs ~level =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Bootstrap.ci: empty sample";
  if level <= 0. || level >= 1. then invalid_arg "Bootstrap.ci: level outside (0, 1)";
  let stats = Array.make replicates 0. in
  let resample = Array.make n 0. in
  for r = 0 to replicates - 1 do
    for i = 0 to n - 1 do
      resample.(i) <- xs.(Rng.int rng n)
    done;
    stats.(r) <- statistic resample
  done;
  let alpha = (1. -. level) /. 2. in
  match Quantile.quantiles stats [ alpha; 1. -. alpha ] with
  | [ lo; hi ] -> (lo, hi)
  | _ -> assert false
