(* From-scratch reference computations that the tests check the
   library's incremental or enumerating code against.  Each follows
   the paper's definition for one vertex set directly, with no shared
   state, so an error in the library's bookkeeping cannot cancel out. *)

open Rumor_core.Rumor

(* Crossing edges of [set], each as [(inside, outside)]. *)
let cut_edges g set =
  Graph.fold_edges
    (fun u v acc ->
      match (Bitset.mem set u, Bitset.mem set v) with
      | true, false -> (u, v) :: acc
      | false, true -> (v, u) :: acc
      | true, true | false, false -> acc)
    g []

let volume_of g set = Bitset.fold (fun u acc -> acc + Graph.degree g u) set 0

(* [rho(S)] (Equation 4 for one set), for [0 < vol(S) <= vol(G)/2]:
   the minimum over crossing edges [{u, v}] of
   [max(dbar(S)/d_u, dbar(S)/d_v)] with [dbar(S) = vol(S)/|S|];
   [infinity] on an empty cut. *)
let diligence_of_cut g set =
  let vol_s = volume_of g set in
  if vol_s <= 0 || 2 * vol_s > Graph.volume g then
    invalid_arg "Oracle.diligence_of_cut: need 0 < vol(S) <= vol(G)/2";
  let dbar = float_of_int vol_s /. float_of_int (Bitset.cardinal set) in
  List.fold_left
    (fun acc (u, v) ->
      let du = float_of_int (Graph.degree g u)
      and dv = float_of_int (Graph.degree g v) in
      Float.min acc (Float.max (dbar /. du) (dbar /. dv)))
    infinity (cut_edges g set)

(* The minimum of [f set] over every proper non-empty vertex set
   accepted by [keep], each set built afresh from its bitmask. *)
let min_over_sets ?(keep = fun _ -> true) g f =
  let n = Graph.n g in
  let best = ref infinity in
  for mask = 1 to (1 lsl n) - 2 do
    let set = Bitset.create n in
    for u = 0 to n - 1 do
      if mask land (1 lsl u) <> 0 then ignore (Bitset.add set u)
    done;
    if keep set then best := Float.min !best (f set)
  done;
  !best

(* Hop distances from [s] by breadth-first search; [-1] where
   unreachable. *)
let bfs g s =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  let queue = Queue.create () in
  dist.(s) <- 0;
  Queue.push s queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Graph.iter_neighbors
      (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.push v queue
        end)
      g u
  done;
  dist

(* The set of nodes reachable from [s]. *)
let component_of g s =
  let set = Bitset.create (Graph.n g) in
  Array.iteri (fun u d -> if d >= 0 then ignore (Bitset.add set u)) (bfs g s);
  set

(* Connected components: a label per node, labels [0 .. count-1] in
   order of each component's smallest node, and [count]. *)
let components g =
  let label = Array.make (Graph.n g) (-1) in
  let count = ref 0 in
  Array.iteri
    (fun s l ->
      if l < 0 then begin
        Array.iteri (fun u d -> if d >= 0 then label.(u) <- !count) (bfs g s);
        incr count
      end)
    label;
  (label, !count)

(* Largest finite hop distance from [s]. *)
let eccentricity g s =
  let dist = bfs g s in
  Array.fold_left
    (fun acc d ->
      if d < 0 then invalid_arg "Oracle.eccentricity: disconnected graph"
      else max acc d)
    0 dist

(* Exact diameter by all-sources BFS. *)
let diameter g =
  let n = Graph.n g in
  if n = 0 then 0
  else begin
    let best = ref 0 in
    for s = 0 to n - 1 do
      best := max !best (eccentricity g s)
    done;
    !best
  end

(* --- Exact and limit laws of the spread time --- *)

(* On [K_n], asynchronous push-pull is a pure-jump Markov chain in the
   informed-set size: with [k] informed, the next informing event comes
   after exactly [Exp(2 k (n-k) / (n-1))].  Sampling the chain gives the
   exact spread-time law with no graph simulation at all.
   Panagiotou-Speidel (PAPERS.md) prove that on dense G(n,p)
   (np >> log n) the spread time converges to this same law,
   independently of p, which makes it the reference distribution of the
   G(n,p) conformance gate. *)
(* [Exp(rate)] by inversion. *)
let exponential rng ~rate = -.log (Rng.float_pos rng) /. rate

let clique_rate ~n ~informed =
  let k = float_of_int informed and nf = float_of_int n in
  2. *. k *. (nf -. k) /. (nf -. 1.)

let clique_sample rng n =
  let t = ref 0. in
  for k = 1 to n - 1 do
    t := !t +. exponential rng ~rate:(clique_rate ~n ~informed:k)
  done;
  !t

let clique_samples rng ~n ~reps = Array.init reps (fun _ -> clique_sample rng n)

(* Acan, Collevecchio, Mehrabian and Wormald: on any connected [n]-node
   graph push-pull spreads in Omega(log n) and O(n) w.h.p.  These pins
   take deliberately slack constants, [ln n / 4] and [4 n], usable at
   moderate [n]. *)
let worst_case_lower n = log (float_of_int (max 2 n)) /. 4.

let worst_case_upper n = 4. *. float_of_int (max 1 n)

(* The edge-Markovian network by its definition: one Bernoulli trial
   per node pair and step (an edge dies with probability [q], a
   non-edge is born with probability [p]), from the empty graph.  The
   distributional cross-check for [Markovian.network]'s sparse
   geometric-skip sampler (test_delta's density test).  Emits no
   deltas. *)
let markovian_dense ~n ~p ~q =
  let init = Gen.empty n in
  {
    Dynet.n;
    name = Printf.sprintf "edge-markovian-dense(n=%d,p=%.3g,q=%.3g)" n p q;
    source_hint = None;
    spawn =
      (fun rng ->
        let current = ref init in
        Dynet.make_instance (fun ~step ~informed:_ ->
            if step = 0 then Dynet.info_of_graph ~changed:true init
            else begin
              let prev = !current in
              let b = Builder.create n in
              for u = 0 to n - 1 do
                for v = u + 1 to n - 1 do
                  let alive =
                    if Graph.has_edge prev u v then not (Rng.bernoulli rng q)
                    else Rng.bernoulli rng p
                  in
                  if alive then Builder.add_edge_exn b u v
                done
              done;
              let g = Builder.freeze b in
              current := g;
              Dynet.info_of_graph ~changed:(not (Graph.equal g prev)) g
            end));
  }

(* A well-formed informing trajectory on [n] nodes: non-empty, starts
   informed, time non-decreasing, count strictly increasing and at most
   [n]. *)
let validate_trace tr ~n =
  if Array.length tr = 0 then invalid_arg "Oracle.validate_trace: empty trajectory";
  let _, c0 = tr.(0) in
  if c0 < 1 then invalid_arg "Oracle.validate_trace: must start informed";
  for i = 1 to Array.length tr - 1 do
    let t0, n0 = tr.(i - 1) and t1, n1 = tr.(i) in
    if t1 < t0 then invalid_arg "Oracle.validate_trace: time not monotone";
    if n1 <= n0 then invalid_arg "Oracle.validate_trace: count not increasing";
    if n1 > n then invalid_arg "Oracle.validate_trace: count exceeds n"
  done
