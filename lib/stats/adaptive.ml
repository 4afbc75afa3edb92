type width = Abs of float | Rel of float

type config = {
  width : width;
  level : float;
  min_reps : int;
  max_reps : int;
  chunk : int;
}

let width_value = function Abs w -> w | Rel w -> w

let config ?(level = 0.95) ?(min_reps = 16) ?(max_reps = 4096) ?(chunk = 16)
    width =
  let w = width_value width in
  if not (Float.is_finite w && w > 0.) then
    invalid_arg "Adaptive.config: width must be positive and finite";
  if not (level > 0. && level < 1.) then
    invalid_arg "Adaptive.config: level must lie in (0, 1)";
  if min_reps < 1 then invalid_arg "Adaptive.config: min_reps must be >= 1";
  if max_reps < min_reps then
    invalid_arg "Adaptive.config: max_reps must be >= min_reps";
  if chunk < 1 then invalid_arg "Adaptive.config: chunk must be >= 1";
  { width; level; min_reps; max_reps; chunk }

(* Acklam's rational approximation to the inverse normal CDF; absolute
   error below 1.2e-9 over (0, 1), more than enough for CI critical
   values.  Coefficients are the published ones. *)
let inv_normal_cdf p =
  if not (p > 0. && p < 1.) then
    invalid_arg "Adaptive.z_of_level: probability outside (0, 1)";
  let a =
    [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
       1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |]
  and b =
    [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
       6.680131188771972e+01; -1.328068155288572e+01 |]
  and c =
    [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
       -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |]
  and d =
    [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
       3.754408661907416e+00 |]
  in
  let p_low = 0.02425 in
  let p_high = 1. -. p_low in
  if p < p_low then
    let q = sqrt (-2. *. log p) in
    (((((c.(0) *. q +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q
    +. c.(5))
    /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.)
  else if p <= p_high then
    let q = p -. 0.5 in
    let r = q *. q in
    (((((a.(0) *. r +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4)) *. r
    +. a.(5))
    *. q
    /. (((((b.(0) *. r +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4))
          *. r
       +. 1.)
  else
    let q = sqrt (-2. *. log (1. -. p)) in
    -.((((((c.(0) *. q +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4))
         *. q
       +. c.(5))
       /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.))

let z_of_level level =
  if not (level > 0. && level < 1.) then
    invalid_arg "Adaptive.z_of_level: level must lie in (0, 1)";
  inv_normal_cdf (0.5 *. (1. +. level))

let half_width ~level ~count ~sd =
  if count < 2 || not (Float.is_finite sd) then infinity
  else z_of_level level *. sd /. sqrt (float_of_int count)

let target config ~mean =
  match config.width with
  | Abs w -> w
  | Rel w -> if Float.is_finite mean then w *. Float.abs mean else 0.

type reason = Converged | Budget
type decision = Continue | Stop of reason

let decide config ~consumed ~used ~mean ~sd =
  let converged =
    consumed >= config.min_reps
    && half_width ~level:config.level ~count:used ~sd <= target config ~mean
  in
  if converged then Stop Converged
  else if consumed >= config.max_reps then Stop Budget
  else Continue

type cv = {
  beta : float;
  adjusted : float array;
  mean : float;
  sd : float;
  variance_ratio : float;
}

let mean_sd xs =
  let s = Stream.create () in
  Array.iter (Stream.add s) xs;
  (Stream.mean s, Stream.stddev s, Stream.variance s)

let control_variate ?(control_mean = 0.) ~values ~controls () =
  let n = Array.length values in
  if Array.length controls <> n then
    invalid_arg "Adaptive.control_variate: length mismatch";
  let raw_mean, raw_sd, raw_var = mean_sd values in
  let degenerate () =
    {
      beta = 0.;
      adjusted = Array.copy values;
      mean = raw_mean;
      sd = raw_sd;
      variance_ratio = 1.;
    }
  in
  if n < 2 then degenerate ()
  else
    let c_mean, _, c_var = mean_sd controls in
    if not (Float.is_finite c_var && c_var > 0. && Float.is_finite raw_var)
    then degenerate ()
    else begin
      (* Sample covariance over the same n-1 divisor as the variances. *)
      let cov = ref 0. in
      for i = 0 to n - 1 do
        cov :=
          !cov +. ((values.(i) -. raw_mean) *. (controls.(i) -. c_mean))
      done;
      let cov = !cov /. float_of_int (n - 1) in
      let beta = cov /. c_var in
      if not (Float.is_finite beta) then degenerate ()
      else
        let adjusted =
          Array.init n (fun i ->
              values.(i) -. (beta *. (controls.(i) -. control_mean)))
        in
        let adj_mean, adj_sd, adj_var = mean_sd adjusted in
        let variance_ratio =
          if Float.is_finite adj_var && adj_var > 0. then raw_var /. adj_var
          else if raw_var > 0. then infinity
          else 1.
        in
        { beta; adjusted; mean = adj_mean; sd = adj_sd; variance_ratio }
    end
