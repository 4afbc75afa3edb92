(* Compressed-sparse-row (CSR) core: one offsets array of n+1 ints and
   one packed neighbour array of 2m ints, ascending within each node's
   segment.  Chosen over [int array array] for cache locality on the
   engine hot paths and because [patch] can produce the next step's
   graph from an edge delta with two array blits instead of a full
   Builder/freeze round trip. *)
type t = {
  n : int;
  m : int;
  off : int array; (* length n+1; off.(n) = 2m *)
  nbr : int array; (* length 2m; nbr.(off.(u) .. off.(u+1)-1) sorted increasing *)
  edges : (int * int) array Lazy.t; (* (u, v) with u < v, lex-sorted *)
}

let n g = g.n

let m g = g.m

let check g u =
  if u < 0 || u >= g.n then
    invalid_arg (Printf.sprintf "Graph: node %d out of range [0, %d)" u g.n)

(* Unchecked hot-path accessors: the simulators validate node ids once
   at engine creation, so per-contact bounds checks are pure waste. *)
let unsafe_degree g u =
  Array.unsafe_get g.off (u + 1) - Array.unsafe_get g.off u

let unsafe_neighbor g u i =
  Array.unsafe_get g.nbr (Array.unsafe_get g.off u + i)

let csr_offsets g = g.off

let csr_neighbors g = g.nbr

let iter_neighbors f g u =
  let stop = Array.unsafe_get g.off (u + 1) in
  for k = Array.unsafe_get g.off u to stop - 1 do
    f (Array.unsafe_get g.nbr k)
  done

let degree g u =
  check g u;
  unsafe_degree g u

let neighbors g u =
  check g u;
  Array.sub g.nbr g.off.(u) (unsafe_degree g u)

let neighbor g u i =
  check g u;
  if i < 0 || i >= unsafe_degree g u then
    invalid_arg (Printf.sprintf "Graph.neighbor: index %d out of range" i);
  unsafe_neighbor g u i

let has_edge g u v =
  check g u;
  check g v;
  let lo0 = g.off.(u) in
  let rec bsearch lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      let w = g.nbr.(mid) in
      if w = v then true else if w < v then bsearch (mid + 1) hi else bsearch lo mid
  in
  bsearch lo0 g.off.(u + 1)

let compute_edges nn mm off nbr =
  let out = Array.make mm (0, 0) in
  let k = ref 0 in
  for u = 0 to nn - 1 do
    for i = off.(u) to off.(u + 1) - 1 do
      let v = nbr.(i) in
      if u < v then begin
        out.(!k) <- (u, v);
        incr k
      end
    done
  done;
  out

let mk ~n ~m ~off ~nbr =
  { n; m; off; nbr; edges = lazy (compute_edges n m off nbr) }

let edges g = Lazy.force g.edges

let iter_edges f g =
  for u = 0 to g.n - 1 do
    for i = g.off.(u) to g.off.(u + 1) - 1 do
      let v = g.nbr.(i) in
      if u < v then f u v
    done
  done

let fold_edges f g init =
  let acc = ref init in
  iter_edges (fun u v -> acc := f u v !acc) g;
  !acc

let volume g = 2 * g.m

let max_degree g =
  let best = ref 0 in
  for u = 0 to g.n - 1 do
    let d = unsafe_degree g u in
    if d > !best then best := d
  done;
  !best

let min_degree g =
  if g.n = 0 then 0
  else begin
    let best = ref max_int in
    for u = 0 to g.n - 1 do
      let d = unsafe_degree g u in
      if d < !best then best := d
    done;
    !best
  end

let is_regular g = g.n = 0 || max_degree g = min_degree g

let equal a b = a.n = b.n && a.m = b.m && a.off = b.off && a.nbr = b.nbr

let pp fmt g =
  Format.fprintf fmt "@[<v>graph n=%d m=%d" g.n g.m;
  if g.n <= 32 then
    for u = 0 to g.n - 1 do
      Format.fprintf fmt "@,%3d:" u;
      iter_neighbors (fun v -> Format.fprintf fmt " %d" v) g u
    done;
  Format.fprintf fmt "@]"

let unsafe_make ~n ~adj =
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u) + Array.length adj.(u)
  done;
  let total = off.(n) in
  let nbr = Array.make total 0 in
  for u = 0 to n - 1 do
    Array.blit adj.(u) 0 nbr off.(u) (Array.length adj.(u))
  done;
  mk ~n ~m:(total / 2) ~off ~nbr

let of_edges n edge_list =
  if n < 0 then invalid_arg "Graph.of_edges: negative node count";
  let lists = Array.make (max 1 n) [] in
  let seen = Hashtbl.create (2 * List.length edge_list) in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg
          (Printf.sprintf "Graph.of_edges: edge (%d, %d) out of range" u v);
      if u = v then
        invalid_arg (Printf.sprintf "Graph.of_edges: self-loop at %d" u);
      let key = (min u v, max u v) in
      if Hashtbl.mem seen key then
        invalid_arg
          (Printf.sprintf "Graph.of_edges: duplicate edge (%d, %d)" u v);
      Hashtbl.add seen key ();
      lists.(u) <- v :: lists.(u);
      lists.(v) <- u :: lists.(v))
    edge_list;
  let adj =
    Array.init n (fun u ->
        let a = Array.of_list lists.(u) in
        Array.sort compare a;
        a)
  in
  unsafe_make ~n ~adj

(* --- O(Delta) structural updates --- *)

(* In-place insertion sort of nbr.(lo .. hi-1): the segment produced by
   [patch] is a sorted prefix followed by the few freshly added
   neighbours, so this is O(length + inversions). *)
let sort_segment a lo hi =
  for i = lo + 1 to hi - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

let patch g ~add ~remove =
  let n = g.n in
  let norm ctx (u, v) =
    if u < 0 || u >= n || v < 0 || v >= n then
      invalid_arg
        (Printf.sprintf "Graph.patch: %s edge (%d, %d) out of range" ctx u v);
    if u = v then
      invalid_arg (Printf.sprintf "Graph.patch: self-loop at %d" u);
    if u < v then (u, v) else (v, u)
  in
  let seen = Hashtbl.create (2 * (Array.length add + Array.length remove) + 1) in
  let claim ctx key =
    if Hashtbl.mem seen key then
      invalid_arg
        (Printf.sprintf "Graph.patch: edge (%d, %d) repeated in %s" (fst key)
           (snd key) ctx);
    Hashtbl.add seen key ()
  in
  (* Per-node pending additions/removals, O(Delta) lists. *)
  let adds = Array.make (max 1 n) [] in
  let rems = Array.make (max 1 n) [] in
  Array.iter
    (fun e ->
      let (u, v) = norm "added" e in
      claim "the delta" (u, v);
      if has_edge g u v then
        invalid_arg
          (Printf.sprintf "Graph.patch: added edge (%d, %d) already present" u v);
      adds.(u) <- v :: adds.(u);
      adds.(v) <- u :: adds.(v))
    add;
  Array.iter
    (fun e ->
      let (u, v) = norm "removed" e in
      claim "the delta" (u, v);
      if not (has_edge g u v) then
        invalid_arg
          (Printf.sprintf "Graph.patch: removed edge (%d, %d) absent" u v);
      rems.(u) <- v :: rems.(u);
      rems.(v) <- u :: rems.(v))
    remove;
  let m' = g.m + Array.length add - Array.length remove in
  let off' = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    off'.(u + 1) <-
      off'.(u) + unsafe_degree g u
      + List.length adds.(u) - List.length rems.(u)
  done;
  let nbr' = Array.make (2 * m') 0 in
  for u = 0 to n - 1 do
    match (adds.(u), rems.(u)) with
    | [], [] ->
      Array.blit g.nbr g.off.(u) nbr' off'.(u) (unsafe_degree g u)
    | au, ru ->
      let k = ref off'.(u) in
      (* Old neighbours minus removals. *)
      (match ru with
      | [] ->
        Array.blit g.nbr g.off.(u) nbr' off'.(u) (unsafe_degree g u);
        k := off'.(u) + unsafe_degree g u
      | _ ->
        iter_neighbors
          (fun v ->
            if not (List.memq v ru) then begin
              nbr'.(!k) <- v;
              incr k
            end)
          g u);
      (* Fresh additions, then restore segment order. *)
      List.iter
        (fun v ->
          nbr'.(!k) <- v;
          incr k)
        au;
      sort_segment nbr' off'.(u) off'.(u + 1)
  done;
  mk ~n ~m:m' ~off:off' ~nbr:nbr'

let diff a b =
  if a.n <> b.n then invalid_arg "Graph.diff: node-count mismatch";
  let added = ref [] and removed = ref [] in
  for u = 0 to a.n - 1 do
    (* Merge the two sorted segments, collecting u < v discrepancies. *)
    let ia = ref a.off.(u) and ib = ref b.off.(u) in
    let ea = a.off.(u + 1) and eb = b.off.(u + 1) in
    while !ia < ea || !ib < eb do
      if !ib >= eb || (!ia < ea && a.nbr.(!ia) < b.nbr.(!ib)) then begin
        let v = a.nbr.(!ia) in
        if u < v then removed := (u, v) :: !removed;
        incr ia
      end
      else if !ia >= ea || b.nbr.(!ib) < a.nbr.(!ia) then begin
        let v = b.nbr.(!ib) in
        if u < v then added := (u, v) :: !added;
        incr ib
      end
      else begin
        incr ia;
        incr ib
      end
    done
  done;
  (Array.of_list (List.rev !added), Array.of_list (List.rev !removed))
