let quantile_sorted sorted q =
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    (* Type-7: h = (n-1) q. *)
    let h = float_of_int (n - 1) *. q in
    let lo = int_of_float (Float.floor h) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = h -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let check xs q =
  if Array.length xs = 0 then invalid_arg "Quantile: empty sample";
  if q < 0. || q > 1. then invalid_arg "Quantile: q outside [0, 1]"

let quantile xs q =
  check xs q;
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  quantile_sorted sorted q

let quantiles xs qs =
  List.iter (fun q -> check xs q) qs;
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  List.map (quantile_sorted sorted) qs

let empirical_tail xs x =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Quantile.empirical_tail: empty sample";
  let c = Array.fold_left (fun acc v -> if v > x then acc + 1 else acc) 0 xs in
  float_of_int c /. float_of_int n
