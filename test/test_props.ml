(* Property-based tests (qcheck, registered through qcheck-alcotest):
   structural invariants over randomly generated inputs. *)

open Rumor_core.Rumor

let count = 100

(* Arbitrary small connected-ish graph via Erdos-Renyi over a seed. *)
let arb_seed = QCheck.int_range 0 1_000_000

let gen_er seed n p = Gen.erdos_renyi (Rng.create seed) n p

(* --- Graph invariants --- *)

let prop_handshake =
  QCheck.Test.make ~count ~name:"sum of degrees = 2m"
    QCheck.(pair arb_seed (int_range 2 40))
    (fun (seed, n) ->
      let g = gen_er seed n 0.3 in
      Array.fold_left ( + ) 0 (Array.init (Graph.n g) (Graph.degree g)) = 2 * Graph.m g)

let prop_edges_simple =
  QCheck.Test.make ~count ~name:"generated graphs are simple"
    QCheck.(pair arb_seed (int_range 2 30))
    (fun (seed, n) ->
      let g = gen_er seed n 0.5 in
      let seen = Hashtbl.create 64 in
      let ok = ref true in
      Graph.iter_edges
        (fun u v ->
          if u = v then ok := false;
          if Hashtbl.mem seen (u, v) then ok := false;
          Hashtbl.add seen (u, v) ())
        g;
      !ok)

let prop_adjacency_symmetric =
  QCheck.Test.make ~count ~name:"has_edge is symmetric"
    QCheck.(pair arb_seed (int_range 2 25))
    (fun (seed, n) ->
      let g = gen_er seed n 0.4 in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v && Graph.has_edge g u v <> Graph.has_edge g v u then
            ok := false
        done
      done;
      !ok)

let prop_random_regular_is_regular =
  QCheck.Test.make ~count:50 ~name:"random_regular yields d-regular simple graphs"
    QCheck.(pair arb_seed (int_range 3 8))
    (fun (seed, d) ->
      let n = if (16 * d) mod 2 = 0 then 16 else 17 in
      let g = Gen.random_connected_regular (Rng.create seed) n d in
      Graph.min_degree g = d && Graph.max_degree g = d)

let prop_bfs_triangle_inequality =
  QCheck.Test.make ~count:50 ~name:"BFS distances obey edge relaxation"
    arb_seed
    (fun seed ->
      let g = gen_er seed 20 0.3 in
      let dist = Oracle.bfs g 0 in
      let ok = ref true in
      Graph.iter_edges
        (fun u v ->
          if dist.(u) >= 0 && dist.(v) >= 0 && abs (dist.(u) - dist.(v)) > 1 then
            ok := false;
          if (dist.(u) >= 0) <> (dist.(v) >= 0) then ok := false)
        g;
      !ok)

(* --- Parameter ranges (the paper's Section 1.1 inequalities) --- *)

let prop_conductance_range =
  QCheck.Test.make ~count:50 ~name:"0 < Phi <= 1 on connected graphs"
    arb_seed
    (fun seed ->
      let g = gen_er seed 10 0.5 in
      QCheck.assume (Traverse.is_connected g && Graph.m g > 0);
      let phi = Cut.conductance_exact g in
      phi > 0. && phi <= 1.)

let prop_diligence_range =
  QCheck.Test.make ~count:50 ~name:"1/(n-1) <= rho <= 1 on connected graphs"
    arb_seed
    (fun seed ->
      let g = gen_er seed 9 0.5 in
      QCheck.assume (Traverse.is_connected g);
      let rho = Cut.diligence_exact g in
      rho >= (1. /. 8.) -. 1e-12 && rho <= 1. +. 1e-12)

let prop_absolute_diligence_vs_min_degree =
  QCheck.Test.make ~count ~name:"rho_bar = 1/max_edge min-degree"
    arb_seed
    (fun seed ->
      let g = gen_er seed 15 0.4 in
      QCheck.assume (Graph.m g > 0);
      let direct =
        Graph.fold_edges
          (fun u v acc ->
            min acc (Float.max (1. /. float_of_int (Graph.degree g u))
                       (1. /. float_of_int (Graph.degree g v))))
          g infinity
      in
      abs_float (direct -. Metrics.absolute_diligence g) < 1e-12)

let prop_diligence_le_rho_times =
  QCheck.Test.make ~count:30
    ~name:"lambda lower bound (Eq. 3): Phi rho <= cut-rate/min-side on every cut"
    arb_seed
    (fun seed ->
      (* For random cut S with 0 < vol(S) <= vol/2:
         sum over cut edges of (1/du + 1/dv) >= Phi(G) rho(G) min(|S|, |S^c|). *)
      let g = gen_er seed 10 0.6 in
      QCheck.assume (Traverse.is_connected g && Graph.n g = 10);
      let phi = Cut.conductance_exact g in
      let rho = Cut.diligence_exact g in
      let rng = Rng.create (seed + 1) in
      let ok = ref true in
      for _ = 1 to 20 do
        let s = Bitset.create 10 in
        for u = 0 to 9 do
          if Fixtures.coin rng then ignore (Bitset.add s u)
        done;
        let vol_s = Oracle.volume_of g s in
        let vol_g = Graph.volume g in
        if vol_s > 0 && vol_s < vol_g then begin
          let lambda =
            List.fold_left
              (fun acc (u, v) ->
                acc
                +. (1. /. float_of_int (Graph.degree g u))
                +. (1. /. float_of_int (Graph.degree g v)))
              0. (Oracle.cut_edges g s)
          in
          let min_side =
            min (Bitset.cardinal s) (10 - Bitset.cardinal s)
          in
          if lambda +. 1e-9 < phi *. rho *. float_of_int min_side then ok := false
        end
      done;
      !ok)

(* --- Bitset/Fenwick algebra --- *)

let prop_bitset_add_remove =
  QCheck.Test.make ~count ~name:"bitset add/remove round-trips"
    QCheck.(pair (int_range 1 200) (list (int_range 0 199)))
    (fun (n, ops) ->
      let s = Bitset.create 200 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun i ->
          let i = i mod 200 in
          if Hashtbl.mem model i then begin
            Hashtbl.remove model i;
            ignore (Bitset.remove s i)
          end
          else begin
            Hashtbl.add model i ();
            ignore (Bitset.add s i)
          end)
        ops;
      ignore n;
      Bitset.cardinal s = Hashtbl.length model
      && List.for_all (fun i -> Bitset.mem s i = Hashtbl.mem model i)
           (List.init 200 (fun i -> i)))

let prop_fenwick_matches_naive =
  QCheck.Test.make ~count ~name:"fenwick prefix sums match naive"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30) (float_range 0. 10.))
    (fun weights ->
      let arr = Array.of_list weights in
      let n = Array.length arr in
      let f = Fenwick.create n in
      Fenwick.fill_from f arr;
      let naive = Array.make n 0. in
      let acc = ref 0. in
      Array.iteri
        (fun i w ->
          acc := !acc +. w;
          naive.(i) <- !acc)
        arr;
      let ok = ref true in
      for i = 0 to n - 1 do
        if abs_float (Fenwick.prefix_sum f i -. naive.(i)) > 1e-9 then ok := false
      done;
      !ok)


let prop_async_completes_on_connected =
  QCheck.Test.make ~count:30 ~name:"async completes on connected static graphs"
    arb_seed
    (fun seed ->
      let g = gen_er seed 20 0.3 in
      QCheck.assume (Traverse.is_connected g);
      let net = Dynet.of_static g in
      let r = Async_cut.run ~horizon:1e5 (Rng.create (seed + 7)) net ~source:0 in
      r.Async_result.complete && Bitset.is_full r.Async_result.informed)

let prop_async_events_eq_n_minus_1 =
  QCheck.Test.make ~count:30 ~name:"cut engine informs each node exactly once"
    arb_seed
    (fun seed ->
      let g = gen_er seed 15 0.4 in
      QCheck.assume (Traverse.is_connected g);
      let net = Dynet.of_static g in
      let r = Async_cut.run (Rng.create seed) net ~source:0 in
      r.Async_result.events = 14)

let prop_sync_informed_monotone =
  QCheck.Test.make ~count:30 ~name:"sync trace is monotone and complete"
    arb_seed
    (fun seed ->
      let g = gen_er seed 15 0.4 in
      QCheck.assume (Traverse.is_connected g);
      let net = Dynet.of_static g in
      let r = Sync.run (Rng.create seed) net ~source:0 in
      r.Sync.complete
      &&
      let t = r.Sync.trace in
      let ok = ref true in
      for i = 1 to Array.length t - 1 do
        if t.(i) < t.(i - 1) then ok := false
      done;
      !ok && t.(Array.length t - 1) = 15)

let prop_flooding_fastest =
  QCheck.Test.make ~count:30 ~name:"flooding is no slower than any sync run"
    arb_seed
    (fun seed ->
      let g = gen_er seed 12 0.4 in
      QCheck.assume (Traverse.is_connected g);
      let net = Dynet.of_static g in
      let f = Flooding.run (Rng.create seed) net ~source:0 in
      let s = Sync.run (Rng.create (seed * 2)) net ~source:0 in
      f.Flooding.rounds <= s.Sync.rounds)

(* --- Degree sequences --- *)

(* Theorem 1.5's network realizes its degree sequence at step 0: the
   A-side is 4-regular except the special node (Delta, plus the
   bridge), the B-side Delta-regular except the bridged node. *)
let prop_absolute_degree_sequence =
  QCheck.Test.make ~count:20 ~name:"absolute family realizes G(A, 4, Delta)"
    QCheck.(pair (int_range 60 150) (oneofl [ 0.1; 0.2; 0.5 ]))
    (fun (half, rho) ->
      let n = 2 * half in
      let delta = Absolute.delta_of_rho rho in
      QCheck.assume (Absolute.admissible ~n ~rho && half >= (2 * delta) + 6);
      let inst = (Absolute.network ~n ~rho).Dynet.spawn (Rng.create 1) in
      let g = (Dynet.next inst ~informed:(Bitset.create n)).Dynet.graph in
      Fixtures.degree_histogram g
      = List.sort compare
          [ (4, half - 1); (delta, n - half - 1); (delta + 1, 2) ]
      && Graph.degree g 0 = delta + 1
      && Traverse.is_connected g)

(* --- serialization and combinator properties --- *)

let prop_dropout_subgraph =
  QCheck.Test.make ~count:50 ~name:"dropout yields a subgraph with same nodes"
    arb_seed
    (fun seed ->
      let g = gen_er seed 15 0.5 in
      let net =
        Combinators.with_edge_dropout ~p:0.4 (Dynet.of_static g)
      in
      let inst = net.Dynet.spawn (Rng.create (seed + 1)) in
      let g2 = (Dynet.next inst ~informed:(Bitset.create 15)).Dynet.graph in
      Graph.n g2 = Graph.n g
      && Graph.fold_edges (fun u v acc -> acc && Graph.has_edge g u v) g2 true)

let prop_ks_identical_zero =
  QCheck.Test.make ~count:50 ~name:"KS statistic of a sample against itself is 0"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_range (-5.) 5.))
    (fun xs ->
      let a = Array.of_list xs in
      (Ks.two_sample a a).Ks.statistic = 0.)

let prop_trace_phases_le_events =
  QCheck.Test.make ~count:30 ~name:"phase count bounded by informing events"
    arb_seed
    (fun seed ->
      let g = gen_er seed 20 0.4 in
      QCheck.assume (Traverse.is_connected g);
      let net = Dynet.of_static g in
      let r = Async_cut.run ~record_trace:true (Rng.create seed) net ~source:0 in
      let phases = Trace.doubling_phases r.Async_result.trace ~n:20 in
      List.length phases <= r.Async_result.events
      && List.length phases <= Trace.phase_count_bound ~n:20)

let prop_eigen_spectrum_in_range =
  QCheck.Test.make ~count:30 ~name:"normalized adjacency spectrum lies in [-1, 1]"
    arb_seed
    (fun seed ->
      let g = gen_er seed 10 0.6 in
      QCheck.assume (Graph.min_degree g > 0);
      let eig = Eigen.normalized_adjacency_spectrum g in
      Array.for_all (fun l -> l >= -1. -. 1e-9 && l <= 1. +. 1e-9) eig
      && Float.abs (eig.(Array.length eig - 1) -. 1.) < 1e-6)

let () =
  let to_alcotest = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "props"
    [
      ( "graph",
        to_alcotest
          [
            prop_handshake;
            prop_edges_simple;
            prop_adjacency_symmetric;
            prop_random_regular_is_regular;
            prop_bfs_triangle_inequality;
          ] );
      ( "parameters",
        to_alcotest
          [
            prop_conductance_range;
            prop_diligence_range;
            prop_absolute_diligence_vs_min_degree;
            prop_diligence_le_rho_times;
          ] );
      ( "containers",
        to_alcotest
          [ prop_bitset_add_remove; prop_fenwick_matches_naive ] );
      ("degree sequences", to_alcotest [ prop_absolute_degree_sequence ]);
      ( "simulation",
        to_alcotest
          [
            prop_async_completes_on_connected;
            prop_async_events_eq_n_minus_1;
            prop_sync_informed_monotone;
            prop_flooding_fastest;
          ] );
          ( "extensions",
        to_alcotest
          [
            prop_dropout_subgraph;
            prop_ks_identical_zero;
            prop_trace_phases_le_events;
            prop_eigen_spectrum_in_range;
          ] );
    ]
