(* Input builders shared by the test suites.  None of these is on a
   path the library, the CLI or the benchmark runs; each builds its
   value through the library's public constructors, so a test that
   uses one still exercises the real code. *)

open Rumor_core.Rumor

(* A fair coin: the low bit of the next draw. *)
let coin rng = Int64.logand (Rng.bits64 rng) 1L = 1L

(* [bitset n members]: a set over [{0, ..., n-1}]. *)
let bitset n members =
  let s = Bitset.create n in
  List.iter (fun i -> ignore (Bitset.add s i)) members;
  s

(* [of_edges n edges]: the graph on [n] nodes with exactly these edges,
   built through [Builder] (adjacency sorted, as every generator
   produces).  Self-loops, duplicates in either orientation and
   out-of-range ends raise [Invalid_argument]. *)
let of_edges n edges =
  let b = Builder.create n in
  List.iter (fun (u, v) -> Builder.add_edge_exn b u v) edges;
  Builder.freeze b

(* Neighbours of [u] in CSR order. *)
let neighbours g u =
  let acc = ref [] in
  Graph.iter_neighbors (fun v -> acc := v :: !acc) g u;
  List.rev !acc

(* [(degree, count)] pairs in increasing degree order. *)
let degree_histogram g =
  let tbl = Hashtbl.create 16 in
  for u = 0 to Graph.n g - 1 do
    let d = Graph.degree g u in
    let c = try Hashtbl.find tbl d with Not_found -> 0 in
    Hashtbl.replace tbl d (c + 1)
  done;
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) tbl []
  |> List.sort compare

(* Small graph families with known structure (closed-form conductance,
   spectra, diligence), used as inputs to the library's computations. *)

let complete_bipartite a bn =
  let b = Builder.create (a + bn) in
  Builder.add_complete_bipartite b
    (Array.init a (fun i -> i))
    (Array.init bn (fun i -> a + i));
  Builder.freeze b

let binary_tree n =
  let b = Builder.create n in
  for i = 1 to n - 1 do
    Builder.add_edge_exn b i ((i - 1) / 2)
  done;
  Builder.freeze b

let lollipop clique_size path_len =
  let b = Builder.create (clique_size + path_len) in
  Builder.add_clique b (Array.init clique_size (fun i -> i));
  for i = 0 to path_len - 1 do
    let v = clique_size + i in
    let u = if i = 0 then 0 else v - 1 in
    Builder.add_edge_exn b u v
  done;
  Builder.freeze b

(* [grid w h]: the 4-neighbour lattice without wraparound. *)
let grid w h =
  let idx x y = (y * w) + x in
  let b = Builder.create (w * h) in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      if x + 1 < w then Builder.add_edge_exn b (idx x y) (idx (x + 1) y);
      if y + 1 < h then Builder.add_edge_exn b (idx x y) (idx x (y + 1))
    done
  done;
  Builder.freeze b

(* [torus w h]: the lattice with wraparound; 4-regular for [w, h >= 3]. *)
let torus w h =
  let idx x y = (y * w) + x in
  let b = Builder.create (w * h) in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      ignore (Builder.add_edge b (idx x y) (idx ((x + 1) mod w) y));
      ignore (Builder.add_edge b (idx x y) (idx x ((y + 1) mod h)))
    done
  done;
  Builder.freeze b

(* [wheel n]: node 0 as hub joined to an (n-1)-cycle on the rest. *)
let wheel n =
  let b = Builder.create n in
  for i = 1 to n - 1 do
    Builder.add_edge_exn b 0 i;
    ignore (Builder.add_edge b i (if i = n - 1 then 1 else i + 1))
  done;
  Builder.freeze b

(* [random_geometric_torus rng n radius]: [n] uniform points on the
   unit torus, joined when their toroidal distance is at most
   [radius]. *)
let random_geometric_torus rng n radius =
  let pts = Array.init n (fun _ -> (Rng.float rng, Rng.float rng)) in
  let dist (x1, y1) (x2, y2) =
    let wrap d = let d = Float.abs d in Float.min d (1. -. d) in
    let dx = wrap (x1 -. x2) and dy = wrap (y1 -. y2) in
    sqrt ((dx *. dx) +. (dy *. dy))
  in
  let b = Builder.create n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if dist pts.(i) pts.(j) <= radius then Builder.add_edge_exn b i j
    done
  done;
  Builder.freeze b

(* --- Dynamic-network wrappers ---

   Inputs that drive the engines through step kinds the library's own
   families rarely produce: per-step outages, a timed split whose exact
   delta the engines must apply, and round-robin exposure across
   networks. *)

let with_node_outage ~p (base : Dynet.t) =
  {
    Dynet.n = base.Dynet.n;
    name = Printf.sprintf "node-outage(%.2g, %s)" p base.Dynet.name;
    source_hint = base.Dynet.source_hint;
    spawn =
      (fun rng ->
        let inner = base.Dynet.spawn rng in
        let offline = Array.make base.Dynet.n false in
        Dynet.make_instance (fun ~step:_ ~informed ->
            let info = Dynet.next inner ~informed in
            let g = info.Dynet.graph in
            for u = 0 to Graph.n g - 1 do
              offline.(u) <- Rng.bernoulli rng p
            done;
            let b = Builder.create (Graph.n g) in
            Graph.iter_edges
              (fun u v ->
                if (not offline.(u)) && not offline.(v) then
                  Builder.add_edge_exn b u v)
              g;
            Dynet.info_of_graph ~changed:true (Builder.freeze b)))
  }

(* Persistent crash/recovery per node: everyone starts online, and at
   each step boundary each node flips with its transition probability.
   A crashed node loses every edge. *)
let with_churn ~crash ~recover (base : Dynet.t) =
  let n = base.Dynet.n in
  {
    Dynet.n;
    name = Printf.sprintf "churn(%.2g, %.2g, %s)" crash recover base.Dynet.name;
    source_hint = base.Dynet.source_hint;
    spawn =
      (fun rng ->
        let inner = base.Dynet.spawn rng in
        let offline = Array.make n false in
        Dynet.make_instance (fun ~step ~informed ->
            let info = Dynet.next inner ~informed in
            if step > 0 then
              for u = 0 to n - 1 do
                if offline.(u) then begin
                  if Rng.bernoulli rng recover then offline.(u) <- false
                end
                else if Rng.bernoulli rng crash then offline.(u) <- true
              done;
            let g = info.Dynet.graph in
            let b = Builder.create (Graph.n g) in
            Graph.iter_edges
              (fun u v ->
                if (not offline.(u)) && not offline.(v) then
                  Builder.add_edge_exn b u v)
              g;
            Dynet.info_of_graph ~changed:true (Builder.freeze b)))
  }

(* [map_graph f base]: [base] with [f ~step] applied to every exposed
   graph. *)
let map_graph f (base : Dynet.t) =
  {
    Dynet.n = base.Dynet.n;
    name = Printf.sprintf "map(%s)" base.Dynet.name;
    source_hint = base.Dynet.source_hint;
    spawn =
      (fun rng ->
        let inner = base.Dynet.spawn rng in
        Dynet.make_instance (fun ~step ~informed ->
            let info = Dynet.next inner ~informed in
            Dynet.info_of_graph ~changed:true (f ~step info.Dynet.graph)))
  }

let with_partition ~from_step ~until_step ~side (base : Dynet.t) =
  {
    Dynet.n = base.Dynet.n;
    name =
      Printf.sprintf "partition([%d, %d), %s)" from_step until_step
        base.Dynet.name;
    source_hint = base.Dynet.source_hint;
    spawn =
      (fun rng ->
        let inner = base.Dynet.spawn rng in
        let prev_exposed = ref None in
        (* Describe [g] relative to the previously exposed graph: an
           exact diff-based delta (capped: past half the edge count a
           rebuild is cheaper), and an honest [changed] flag. *)
        let describe base_info g =
          let out =
            match !prev_exposed with
            | None -> { base_info with Dynet.graph = g; changed = true; delta = None }
            | Some p ->
              let added, removed = Graph.diff p g in
              if Array.length added = 0 && Array.length removed = 0 then
                { base_info with Dynet.graph = p; changed = false; delta = None }
              else begin
                let d = Dynet.make_delta ~added ~removed in
                let delta =
                  if Dynet.delta_size d > 1 + (Graph.m g / 2) then None
                  else Some d
                in
                { base_info with Dynet.graph = g; changed = true; delta }
              end
          in
          prev_exposed := Some out.Dynet.graph;
          out
        in
        Dynet.make_instance (fun ~step ~informed ->
            let info = Dynet.next inner ~informed in
            if step >= from_step && step < until_step then begin
              match !prev_exposed with
              | Some g when (not info.Dynet.changed) && step > from_step ->
                (* Inner unchanged strictly inside the window: the
                   filtered graph is unchanged too; skip the rebuild. *)
                Dynet.info_of_graph ~changed:false g
              | _ ->
                let g0 = info.Dynet.graph in
                let b = Builder.create (Graph.n g0) in
                Graph.iter_edges
                  (fun u v -> if side u = side v then Builder.add_edge_exn b u v)
                  g0;
                (* The filter invalidates the inner analytic values, so
                   start from a bare info. *)
                describe (Dynet.info_of_graph g0) (Builder.freeze b)
            end
            else if step = until_step then
              (* Leaving the window restores the cross edges even when
                 the base graph itself did not change; diff against the
                 last filtered exposure. *)
              describe info info.Dynet.graph
            else begin
              (* Outside the window: consecutive inner exposures, so
                 the inner delta passes through unchanged. *)
              prev_exposed := Some info.Dynet.graph;
              info
            end))
  }

let interleave nets =
  match nets with
  | [] -> invalid_arg "Fixtures.interleave: empty list"
  | (first : Dynet.t) :: rest ->
    let n = first.Dynet.n in
    List.iter
      (fun (net : Dynet.t) ->
        if net.Dynet.n <> n then
          invalid_arg "Fixtures.interleave: node-count mismatch")
      rest;
    let arr = Array.of_list nets in
    {
      Dynet.n;
      name =
        Printf.sprintf "interleave(%s)"
          (String.concat ", " (List.map (fun (x : Dynet.t) -> x.Dynet.name) nets));
      source_hint = first.Dynet.source_hint;
      spawn =
        (fun rng ->
          let instances =
            Array.map (fun (net : Dynet.t) -> net.Dynet.spawn (Rng.split rng)) arr
          in
          Dynet.make_instance (fun ~step ~informed ->
              let info =
                Dynet.next instances.(step mod Array.length instances) ~informed
              in
              (* Consecutive exposed graphs come from different
                 networks: report changed conservatively, and drop the
                 inner delta — it describes the inner network's own
                 previous graph, not the one exposed last step. *)
              { info with Dynet.changed = true; delta = None }));
    }

(* [of_sequence graphs]: [G(t) = graphs.(t mod length)], each step with
   its exact delta from the previous graph.  All graphs must share the
   node count. *)
let of_sequence graphs =
  let len = Array.length graphs in
  if len = 0 then invalid_arg "Fixtures.of_sequence: empty graph array";
  let n = Graph.n graphs.(0) in
  Array.iter
    (fun g ->
      if Graph.n g <> n then
        invalid_arg "Fixtures.of_sequence: node-count mismatch")
    graphs;
  (* Per-index transition (changed flag + delta), computed once here
     instead of an O(m) Graph.equal on every step of every run.
     trans.(i) describes graphs.((i + len - 1) mod len) -> graphs.(i). *)
  let trans =
    Array.init len (fun i ->
        let prev = graphs.((i + len - 1) mod len) in
        let added, removed = Graph.diff prev graphs.(i) in
        if Array.length added = 0 && Array.length removed = 0 then (false, None)
        else (true, Some (Dynet.make_delta ~added ~removed)))
  in
  {
    Dynet.n;
    name = Printf.sprintf "sequence-%d" len;
    source_hint = None;
    spawn =
      (fun _rng ->
        Dynet.make_instance (fun ~step ~informed:_ ->
            let g = graphs.(step mod len) in
            if step = 0 then Dynet.info_of_graph ~changed:true g
            else
              let changed, delta = trans.(step mod len) in
              Dynet.info_of_graph ~changed ?delta g));
  }

(* All-zero network fault: the chaos proxy as a faithful (if slightly
   slower) TCP relay, and the base record the transport tests extend. *)
let passthrough =
  {
    Netchaos.latency_s = 0.;
    jitter_s = 0.;
    bandwidth_bps = None;
    drop_p = 0.;
    dup_p = 0.;
    corrupt_p = 0.;
    truncate_p = 0.;
    reset_p = 0.;
    reset_after_bytes = None;
    max_resets = None;
  }

(* A fault plan with one partition window: [side] splits the nodes
   during steps [from_step <= t < until_step]. *)
let partition_window ~from_step ~until_step ~side =
  Fault_plan.make ~partitions:[ { Fault_plan.from_step; until_step; side } ] ()
