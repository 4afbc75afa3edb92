open Rumor_util

let exact_size_limit = 22

let volume_of g set = Bitset.fold (fun u acc -> acc + Graph.degree g u) set 0

let cut_size g set =
  Graph.fold_edges
    (fun u v acc ->
      if Bitset.mem set u <> Bitset.mem set v then acc + 1 else acc)
    g 0

let conductance_of_cut g set =
  let vol_s = volume_of g set in
  let vol_rest = Graph.volume g - vol_s in
  if vol_s = 0 || vol_rest = 0 then
    invalid_arg "Cut.conductance_of_cut: a side has zero volume";
  float_of_int (cut_size g set) /. float_of_int (min vol_s vol_rest)

let check_exact g =
  let n = Graph.n g in
  if n > exact_size_limit then
    invalid_arg
      (Printf.sprintf "Cut: exact enumeration limited to n <= %d (got %d)"
         exact_size_limit n)

let popcount_byte =
  Array.init 256 (fun b ->
      let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
      go b 0)

(* n <= exact_size_limit = 22, so masks span at most three bytes. *)
let popcount mask =
  popcount_byte.(mask land 0xff)
  + popcount_byte.((mask lsr 8) land 0xff)
  + popcount_byte.((mask lsr 16) land 0xff)

let bit_index b =
  let i = ref 0 and b = ref b in
  while !b > 1 do
    incr i;
    b := !b lsr 1
  done;
  !i

(* Enumerate the proper non-empty subsets in Gray-code order, so that
   consecutive masks differ in exactly one node: size, volume and cut
   size are maintained incrementally in O(1) word operations per step
   (flipping node x changes the cut by +-(deg x - 2 * |N(x) cap S|)),
   for O(2^n) total instead of the previous O(2^n * (n + m)) rescans.
   Every maintained quantity is an integer, so the callback sees exactly
   the values a from-scratch recomputation would produce. *)
let enumerate g f =
  let n = Graph.n g in
  let edges = Graph.edges g in
  let degrees = Array.init n (Graph.degree g) in
  let vol_g = Graph.volume g in
  (* Adjacency as bitmasks: n <= exact_size_limit fits one word. *)
  let adj = Array.make (max 1 n) 0 in
  Array.iter
    (fun (u, v) ->
      adj.(u) <- adj.(u) lor (1 lsl v);
      adj.(v) <- adj.(v) lor (1 lsl u))
    edges;
  let full = (1 lsl n) - 1 in
  let mask = ref 0 and size_s = ref 0 and vol_s = ref 0 and cut_s = ref 0 in
  for i = 1 to full do
    (* gray(i) = i lxor (i lsr 1) differs from gray(i-1) in the lowest
       set bit of i. *)
    let b = i land -i in
    let x = bit_index b in
    (* adj.(x) never contains x, so the intersection is the same whether
       measured before or after the flip. *)
    let inside = popcount (adj.(x) land !mask) in
    if !mask land b = 0 then begin
      mask := !mask lor b;
      incr size_s;
      vol_s := !vol_s + degrees.(x);
      cut_s := !cut_s + degrees.(x) - (2 * inside)
    end
    else begin
      mask := !mask lxor b;
      decr size_s;
      vol_s := !vol_s - degrees.(x);
      cut_s := !cut_s - degrees.(x) + (2 * inside)
    end;
    if !mask <> 0 && !mask <> full then
      f ~mask:!mask ~size_s:!size_s ~vol_s:!vol_s ~cut_s:!cut_s ~vol_g ~edges
        ~degrees
  done

let conductance_exact g =
  check_exact g;
  if Graph.m g = 0 then invalid_arg "Cut.conductance_exact: edgeless graph";
  if not (Traverse.is_connected g) then 0.
  else begin
    let best = ref infinity in
    enumerate g
      (fun ~mask:_ ~size_s:_ ~vol_s ~cut_s ~vol_g ~edges:_ ~degrees:_ ->
        if vol_s > 0 && vol_s < vol_g then begin
          let phi =
            float_of_int cut_s /. float_of_int (min vol_s (vol_g - vol_s))
          in
          if phi < !best then best := phi
        end);
    !best
  end

let diligence_exact g =
  check_exact g;
  if not (Traverse.is_connected g) then 0.
  else begin
    let best = ref infinity in
    enumerate g (fun ~mask ~size_s ~vol_s ~cut_s:_ ~vol_g ~edges ~degrees ->
        if vol_s > 0 && 2 * vol_s <= vol_g then begin
          let dbar = float_of_int vol_s /. float_of_int size_s in
          let rho_s = ref infinity in
          Array.iter
            (fun (u, v) ->
              let iu = mask land (1 lsl u) <> 0
              and iv = mask land (1 lsl v) <> 0 in
              if iu <> iv then begin
                let du = float_of_int degrees.(u)
                and dv = float_of_int degrees.(v) in
                let m = Float.max (dbar /. du) (dbar /. dv) in
                if m < !rho_s then rho_s := m
              end)
            edges;
          if !rho_s < !best then best := !rho_s
        end);
    !best
  end
