let harmonic n =
  let acc = ref 0. in
  for k = 1 to n do
    acc := !acc +. (1. /. float_of_int k)
  done;
  !acc

let clique_mean n =
  if n < 1 then invalid_arg "Limit_laws.clique_mean: n < 1";
  if n = 1 then 0.
  else float_of_int (n - 1) *. harmonic (n - 1) /. float_of_int n
