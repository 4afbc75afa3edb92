let sum xs =
  (* Kahan compensated summation. *)
  let s = ref 0. and c = ref 0. in
  Array.iter
    (fun x ->
      let y = x -. !c in
      let t = !s +. y in
      c := t -. !s -. y;
      s := t)
    xs;
  !s

let require_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty sample")

let mean xs =
  require_nonempty "Descriptive.mean" xs;
  sum xs /. float_of_int (Array.length xs)

let variance xs =
  require_nonempty "Descriptive.variance" xs;
  let n = Array.length xs in
  if n = 1 then 0.
  else begin
    let mu = mean xs in
    let devs = Array.map (fun x -> (x -. mu) *. (x -. mu)) xs in
    sum devs /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let std_error xs = stddev xs /. sqrt (float_of_int (Array.length xs))

let min xs =
  require_nonempty "Descriptive.min" xs;
  Array.fold_left Float.min xs.(0) xs

let max xs =
  require_nonempty "Descriptive.max" xs;
  Array.fold_left Float.max xs.(0) xs
