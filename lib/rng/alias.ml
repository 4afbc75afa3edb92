type t = {
  prob : float array;  (* scaled probability of keeping column i *)
  alias : int array;
  weights : float array;
  total : float;
}

let create weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Alias.create: empty weight array";
  Array.iter
    (fun w ->
      if not (Float.is_finite w) || w < 0. then
        invalid_arg "Alias.create: weights must be finite and non-negative")
    weights;
  let total = Array.fold_left ( +. ) 0. weights in
  if total <= 0. then invalid_arg "Alias.create: all weights are zero";
  let scaled = Array.map (fun w -> w *. float_of_int n /. total) weights in
  let prob = Array.make n 1.0 in
  let alias = Array.init n (fun i -> i) in
  let small = Stack.create () and large = Stack.create () in
  Array.iteri
    (fun i p -> if p < 1.0 then Stack.push i small else Stack.push i large)
    scaled;
  while (not (Stack.is_empty small)) && not (Stack.is_empty large) do
    let s = Stack.pop small and l = Stack.pop large in
    prob.(s) <- scaled.(s);
    alias.(s) <- l;
    scaled.(l) <- scaled.(l) +. scaled.(s) -. 1.0;
    if scaled.(l) < 1.0 then Stack.push l small else Stack.push l large
  done;
  (* Numerical leftovers keep probability 1. *)
  { prob; alias; weights = Array.copy weights; total }

let sample t rng =
  let n = Array.length t.prob in
  let i = Rng.int rng n in
  if Rng.float rng < t.prob.(i) then i else t.alias.(i)

