(* Knuth's multiplicative method: exact, O(rate). *)
let poisson_small t rate =
  let limit = exp (-.rate) in
  let rec loop k prod =
    let prod = prod *. Rng.float_pos t in
    if prod <= limit then k else loop (k + 1) prod
  in
  loop 0 1.0

(* PTRS transformed-rejection sampler (Hormann 1993), exact for rate >= 10. *)
let poisson_ptrs t rate =
  let log_rate = log rate in
  let b = 0.931 +. (2.53 *. sqrt rate) in
  let a = -0.059 +. (0.02483 *. b) in
  let inv_alpha = 1.1239 +. (1.1328 /. (b -. 3.4)) in
  let v_r = 0.9277 -. (3.6224 /. (b -. 2.)) in
  let rec log_factorial k =
    (* Stirling with correction for small k, exact lgamma-free. *)
    if k < 10 then log (float_of_int (fact k))
    else
      let kf = float_of_int k in
      ((kf +. 0.5) *. log kf) -. kf
      +. (0.5 *. log (2. *. Float.pi))
      +. (1. /. (12. *. kf))
      -. (1. /. (360. *. kf *. kf *. kf))
  and fact k = if k <= 1 then 1 else k * fact (k - 1) in
  let rec draw () =
    let u = Rng.float t -. 0.5 in
    let v = Rng.float_pos t in
    let us = 0.5 -. Float.abs u in
    let k = int_of_float (Float.round (((2. *. a /. us) +. b) *. u +. rate +. 0.43)) in
    if us >= 0.07 && v <= v_r then k
    else if k < 0 || (us < 0.013 && v > us) then draw ()
    else
      let lhs = log (v *. inv_alpha /. ((a /. (us *. us)) +. b)) in
      let rhs = (-.rate) +. (float_of_int k *. log_rate) -. log_factorial k in
      if lhs <= rhs then k else draw ()
  in
  draw ()

let poisson t ~rate =
  if rate < 0. then invalid_arg "Dist.poisson: rate must be non-negative";
  if rate = 0. then 0
  else if rate < 10. then poisson_small t rate
  else poisson_ptrs t rate

let nonhomogeneous_count t ~rate_at ~a ~b ~steps =
  if b <= a then 0
  else begin
    let h = (b -. a) /. float_of_int steps in
    let total = ref 0. in
    for i = 0 to steps - 1 do
      let mid = a +. ((float_of_int i +. 0.5) *. h) in
      total := !total +. (rate_at mid *. h)
    done;
    poisson t ~rate:!total
  end
