type t = {
  n : int;
  tree : float array; (* 1-based internal indexing *)
  raw : float array;  (* per-slot weights, for O(1) get *)
}

let create n =
  if n < 0 then invalid_arg "Fenwick.create: negative size";
  { n; tree = Array.make (n + 1) 0.; raw = Array.make (max 1 n) 0. }

let get t i =
  if i < 0 || i >= t.n then invalid_arg "Fenwick.get: index out of range";
  t.raw.(i)

let[@inline] check_weight w =
  if not (Float.is_finite w) then invalid_arg "Fenwick: non-finite weight"

let[@inline] internal_add t i delta =
  let i = ref (i + 1) in
  while !i <= t.n do
    t.tree.(!i) <- t.tree.(!i) +. delta;
    i := !i + (!i land - !i)
  done

(* A float argument crosses a call boundary boxed.  [add] and [set] are
   [@inline] so a caller that sees this module's implementation keeps
   its float unboxed; a caller that does not (any caller in a build
   with -opaque, e.g. dune's dev profile) pays one allocation per call.
   [add_many]/[set_many] pass floats in an array instead: allocation-free
   in every build, which is what the engine hot path needs. *)
let[@inline] add t i delta =
  if i < 0 || i >= t.n then invalid_arg "Fenwick.add: index out of range";
  check_weight delta;
  let updated = t.raw.(i) +. delta in
  let updated = if updated < 0. then 0. else updated in
  let real_delta = updated -. t.raw.(i) in
  t.raw.(i) <- updated;
  internal_add t i real_delta

let[@inline] set t i w =
  if i < 0 || i >= t.n then invalid_arg "Fenwick.set: index out of range";
  check_weight w;
  if w < 0. then invalid_arg "Fenwick.set: negative weight";
  let delta = w -. t.raw.(i) in
  t.raw.(i) <- w;
  internal_add t i delta

let check_batch name slots values k =
  if k < 0 || k > Array.length slots || k > Array.length values then
    invalid_arg (Printf.sprintf "Fenwick.%s: batch length out of range" name)

let add_many t slots deltas k =
  check_batch "add_many" slots deltas k;
  for j = 0 to k - 1 do
    add t (Array.unsafe_get slots j) (Array.unsafe_get deltas j)
  done

let set_many t slots weights k =
  check_batch "set_many" slots weights k;
  for j = 0 to k - 1 do
    set t (Array.unsafe_get slots j) (Array.unsafe_get weights j)
  done

let prefix_sum t i =
  if i < 0 || i >= t.n then invalid_arg "Fenwick.prefix_sum: index out of range";
  let s = ref 0. in
  let i = ref (i + 1) in
  while !i > 0 do
    s := !s +. t.tree.(!i);
    i := !i - (!i land - !i)
  done;
  !s

let total t = if t.n = 0 then 0. else prefix_sum t (t.n - 1)

let find t x =
  let tot = total t in
  if tot <= 0. then invalid_arg "Fenwick.find: zero total weight";
  let x = if x >= tot then tot *. (1. -. 1e-12) else x in
  (* Descend the implicit tree. *)
  let pos = ref 0 in
  let remaining = ref x in
  let log_floor =
    let rec go p = if p * 2 <= t.n then go (p * 2) else p in
    if t.n >= 1 then go 1 else 0
  in
  let step = ref log_floor in
  while !step > 0 do
    let next = !pos + !step in
    if next <= t.n && t.tree.(next) <= !remaining then begin
      remaining := !remaining -. t.tree.(next);
      pos := next
    end;
    step := !step / 2
  done;
  (* pos is the count of slots whose cumulative weight is <= x. *)
  let idx = !pos in
  if idx >= t.n then t.n - 1 else idx

let fill_from t weights =
  if Array.length weights <> t.n then
    invalid_arg "Fenwick.fill_from: length mismatch";
  Array.iter
    (fun w ->
      check_weight w;
      if w < 0. then invalid_arg "Fenwick.fill_from: negative weight")
    weights;
  Array.blit weights 0 t.raw 0 t.n;
  Array.fill t.tree 0 (t.n + 1) 0.;
  (* O(n) construction. *)
  for i = 1 to t.n do
    t.tree.(i) <- t.tree.(i) +. weights.(i - 1);
    let parent = i + (i land -i) in
    if parent <= t.n then t.tree.(parent) <- t.tree.(parent) +. t.tree.(i)
  done
