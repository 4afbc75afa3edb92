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
  edges : (int * int) array option Atomic.t;
      (* (u, v) with u < v, lex-sorted; filled on first use *)
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

let has_edge g u v =
  check g u;
  check g v;
  let nbr = g.nbr in
  let stop = g.off.(u + 1) in
  let lo = ref g.off.(u) and hi = ref stop in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get nbr mid < v then lo := mid + 1 else hi := mid
  done;
  !lo < stop && Array.unsafe_get nbr !lo = v

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

let mk ~n ~m ~off ~nbr = { n; m; off; nbr; edges = Atomic.make None }

(* Graphs are shared across domains (one network, many replicates), so
   the edge list is cached through an atomic rather than a [Lazy.t],
   which raises [Lazy.Undefined] when two domains force it at once.  A
   race computes the list twice and keeps the first. *)
let edges g =
  match Atomic.get g.edges with
  | Some e -> e
  | None ->
    let e = compute_edges g.n g.m g.off g.nbr in
    if Atomic.compare_and_set g.edges None (Some e) then e
    else Option.get (Atomic.get g.edges)

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

(* Validation finds the first malformed delta element in add-then-remove
   order, checking each element for range, self-loop, repetition and
   presence in that order, and raises that element's error.  The build
   then walks per-node buckets of delta elements (a counting sort by
   endpoint) and one int stamp array: no hashing, no lists. *)
let patch g ~add ~remove =
  let n = g.n in
  let na = Array.length add in
  let total = na + Array.length remove in
  let edge j = if j < na then Array.unsafe_get add j else Array.unsafe_get remove (j - na) in
  (* Range, self-loop and presence, element by element.  Elements at or
     after the first malformed one ([bad]) are never looked at again. *)
  let bad = ref total and absent_or_present = ref total in
  let j = ref 0 in
  while !j < !bad do
    let (u, v) = edge !j in
    if u < 0 || u >= n || v < 0 || v >= n || u = v then bad := !j
    else begin
      if !absent_or_present = total && has_edge g u v = (!j < na) then
        absent_or_present := !j;
      incr j
    end
  done;
  let bad = !bad in
  (* Counting sort of the valid prefix by endpoint: bucket u lists, in
     delta order, every element touching u. *)
  let start = Array.make (n + 1) 0 in
  for j = 0 to bad - 1 do
    let (u, v) = edge j in
    start.(u) <- start.(u) + 1;
    start.(v) <- start.(v) + 1
  done;
  for u = 1 to n do
    start.(u) <- start.(u) + start.(u - 1)
  done;
  let bucket = Array.make (2 * bad) 0 and peer = Array.make (2 * bad) 0 in
  for j = bad - 1 downto 0 do
    let (u, v) = edge j in
    let ku = start.(u) - 1 in
    start.(u) <- ku;
    bucket.(ku) <- j;
    peer.(ku) <- v;
    let kv = start.(v) - 1 in
    start.(v) <- kv;
    bucket.(kv) <- j;
    peer.(kv) <- u
  done;
  (* Repetition: within bucket u, a neighbour already stamped u was
     named by an earlier element.  Stamps from other buckets never
     equal u. *)
  let stamp = Array.make (Int.max 1 n) (-1) in
  let repeated = ref total in
  for u = 0 to n - 1 do
    for k = start.(u) to start.(u + 1) - 1 do
      let w = peer.(k) in
      if stamp.(w) = u then (if bucket.(k) < !repeated then repeated := bucket.(k))
      else stamp.(w) <- u
    done
  done;
  let first = Int.min bad (Int.min !repeated !absent_or_present) in
  if first < total then begin
    let (u, v) = edge first in
    let lo = Int.min u v and hi = Int.max u v in
    if first = bad then
      if u = v && u >= 0 && u < n then
        invalid_arg (Printf.sprintf "Graph.patch: self-loop at %d" u)
      else
        invalid_arg
          (Printf.sprintf "Graph.patch: %s edge (%d, %d) out of range"
             (if first < na then "added" else "removed")
             u v)
    else if first = !repeated then
      invalid_arg
        (Printf.sprintf "Graph.patch: edge (%d, %d) repeated in the delta" lo hi)
    else if first < na then
      invalid_arg
        (Printf.sprintf "Graph.patch: added edge (%d, %d) already present" lo hi)
    else
      invalid_arg (Printf.sprintf "Graph.patch: removed edge (%d, %d) absent" lo hi)
  end;
  (* Build.  A node's degree moves by its additions minus its removals. *)
  let off' = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    let d = ref (unsafe_degree g u) in
    for k = start.(u) to start.(u + 1) - 1 do
      if bucket.(k) < na then incr d else decr d
    done;
    off'.(u + 1) <- off'.(u) + !d
  done;
  let m' = g.m + na - (total - na) in
  let nbr' = Array.make (2 * m') 0 in
  for u = 0 to n - 1 do
    let b0 = start.(u) and b1 = start.(u + 1) in
    if b0 = b1 then Array.blit g.nbr g.off.(u) nbr' off'.(u) (unsafe_degree g u)
    else begin
      (* Stamp n + u marks u's removed neighbours; the validation stamps
         are all below n. *)
      let mark = n + u in
      for k = b0 to b1 - 1 do
        if bucket.(k) >= na then stamp.(peer.(k)) <- mark
      done;
      let k = ref off'.(u) in
      for i = g.off.(u) to g.off.(u + 1) - 1 do
        let w = g.nbr.(i) in
        if stamp.(w) <> mark then begin
          nbr'.(!k) <- w;
          incr k
        end
      done;
      (* Fresh additions, then restore segment order. *)
      for b = b0 to b1 - 1 do
        if bucket.(b) < na then begin
          nbr'.(!k) <- peer.(b);
          incr k
        end
      done;
      sort_segment nbr' off'.(u) off'.(u + 1)
    end
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
