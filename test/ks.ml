(* Two-sample Kolmogorov-Smirnov test: the statistic
   [D = sup |F1 - F2|] with the asymptotic Kolmogorov p-value.  The
   tests use it to compare whole spread-time distributions (engine
   against engine, simulator against an exact law), not just means.
   [critical_value ~n1 ~n2 ~alpha] is the rejection threshold
   [c(alpha) sqrt((n1+n2)/(n1 n2))] with
   [c(alpha) = sqrt(-ln(alpha/2)/2)]. *)

type result = {
  statistic : float;
  p_value : float;
}

(* Asymptotic Kolmogorov survival function Q(lambda) =
   2 sum_{j>=1} (-1)^{j-1} e^{-2 j^2 lambda^2}. *)
let kolmogorov_q lambda =
  if lambda <= 0. then 1.
  else begin
    let s = ref 0. in
    for j = 1 to 100 do
      let term =
        (if j mod 2 = 1 then 1. else -1.)
        *. exp (-2. *. float_of_int (j * j) *. lambda *. lambda)
      in
      s := !s +. term
    done;
    Float.max 0. (Float.min 1. (2. *. !s))
  end

let two_sample xs ys =
  let n1 = Array.length xs and n2 = Array.length ys in
  if n1 = 0 || n2 = 0 then invalid_arg "Ks.two_sample: empty sample";
  let a = Array.copy xs and b = Array.copy ys in
  Array.sort compare a;
  Array.sort compare b;
  (* Merge walk computing sup |F1 - F2|. *)
  let i = ref 0 and j = ref 0 in
  let d = ref 0. in
  let f1 () = float_of_int !i /. float_of_int n1 in
  let f2 () = float_of_int !j /. float_of_int n2 in
  while !i < n1 && !j < n2 do
    let x = a.(!i) and y = b.(!j) in
    if x <= y then incr i;
    if y <= x then incr j;
    d := Float.max !d (Float.abs (f1 () -. f2 ()))
  done;
  d := Float.max !d (Float.abs (f1 () -. f2 ()));
  let statistic = !d in
  let ne = float_of_int n1 *. float_of_int n2 /. float_of_int (n1 + n2) in
  let lambda = (sqrt ne +. 0.12 +. (0.11 /. sqrt ne)) *. statistic in
  { statistic; p_value = kolmogorov_q lambda }

let critical_value ~n1 ~n2 ~alpha =
  if alpha <= 0. || alpha >= 1. then invalid_arg "Ks.critical_value: bad alpha";
  if n1 < 1 || n2 < 1 then invalid_arg "Ks.critical_value: bad sample sizes";
  let c = sqrt (-.log (alpha /. 2.) /. 2.) in
  c *. sqrt (float_of_int (n1 + n2) /. (float_of_int n1 *. float_of_int n2))
