(* Edge-case tests: boundary parameters, degenerate inputs and
   cross-module consistency checks not covered by the per-module
   suites. *)

open Rumor_core.Rumor

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let flt = Alcotest.float 1e-9

(* --- rng / dist boundaries --- *)

let test_rng_copy_snapshot () =
  let a = Rng.create 1 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  (* The copy continues the same stream; the original is unaffected by
     draws on the copy. *)
  let xa = Rng.bits64 a in
  let xb = Rng.bits64 b in
  check Alcotest.int64 "same next draw" xa xb

let test_rng_int_bound_one () =
  let rng = Rng.create 2 in
  for _ = 1 to 100 do
    check int "bound 1 always 0" 0 (Rng.int rng 1)
  done

let test_poisson_sampler_boundary () =
  (* rate just below and above the PTRS switch (10.0). *)
  let rng = Rng.create 3 in
  List.iter
    (fun rate ->
      let samples =
        Array.init 30_000 (fun _ -> float_of_int (Dist.poisson rng ~rate))
      in
      let m = Descriptive.mean samples in
      check bool
        (Printf.sprintf "mean at rate %.1f" rate)
        true
        (abs_float (m -. rate) < 0.15))
    [ 9.9; 10.0; 10.1 ]

let test_exponential_positive () =
  let rng = Rng.create 5 in
  for _ = 1 to 10_000 do
    check bool "strictly positive" true (Oracle.exponential rng ~rate:1000. > 0.)
  done

let test_alias_singleton () =
  let a = Alias.create [| 5.0 |] in
  let rng = Rng.create 6 in
  for _ = 1 to 50 do
    check int "only choice" 0 (Alias.sample a rng)
  done

(* --- graph boundaries --- *)

let test_empty_and_singleton_graphs () =
  let e0 = Gen.empty 0 in
  check int "0 nodes" 0 (Graph.n e0);
  check int "0 edges" 0 (Graph.m e0);
  check bool "vacuously regular" true (Graph.min_degree e0 = Graph.max_degree e0);
  let e1 = Gen.empty 1 in
  check int "singleton degree" 0 (Graph.degree e1 0);
  check bool "singleton connected" true (Traverse.is_connected e1);
  check int "singleton diameter" 0 (Oracle.diameter e1)

let test_k2_parameters () =
  let g = Gen.clique 2 in
  check flt "phi(K2) = 1" 1.0 (Cut.conductance_exact g);
  check flt "rho(K2) = 1" 1.0 (Cut.diligence_exact g);
  check flt "rho_bar(K2) = 1" 1.0 (Metrics.absolute_diligence g)

let test_min_degree_with_isolated () =
  let g = Fixtures.of_edges 3 [ (0, 1) ] in
  check int "min degree 0" 0 (Graph.min_degree g);
  check int "max degree 1" 1 (Graph.max_degree g)

let test_grid_1xn_is_path () =
  let g = Fixtures.grid 5 1 in
  check bool "1xN grid = path" true (Graph.equal g (Gen.path 5))

let test_circulant_half_stride () =
  (* stride exactly n/2: each chord appears once (i and i+n/2 give the
     same pair), degree 1 from that class. *)
  let g = Gen.circulant 6 [ 3 ] in
  check int "m = n/2" 3 (Graph.m g);
  check bool "perfect matching" true (Graph.min_degree g = 1 && Graph.max_degree g = 1)

let test_builder_degree_tracking () =
  let b = Builder.create 5 in
  ignore (Builder.add_edge b 0 1);
  ignore (Builder.add_edge b 0 2);
  check int "degree" 2 (Builder.degree b 0);
  ignore (Builder.remove_edge b 0 1);
  check int "degree after removal" 1 (Builder.degree b 0)

(* --- engines on tiny / degenerate networks --- *)

let test_async_on_single_node () =
  let net = Dynet.of_static (Gen.empty 1) in
  let r = Async_cut.run (Rng.create 7) net ~source:0 in
  check bool "immediately complete" true r.Async_result.complete;
  check flt "zero time" 0. r.Async_result.time;
  let rt = Async_tick.run (Rng.create 7) net ~source:0 in
  check bool "tick immediately complete" true rt.Async_result.complete

let test_sync_on_single_node () =
  let net = Dynet.of_static (Gen.empty 1) in
  let r = Sync.run (Rng.create 8) net ~source:0 in
  check int "zero rounds" 0 r.Sync.rounds;
  check bool "complete" true r.Sync.complete

let test_flooding_zero_rounds_when_source_alone () =
  let net = Dynet.of_static (Gen.empty 1) in
  let r = Flooding.run (Rng.create 9) net ~source:0 in
  check int "zero rounds" 0 r.Flooding.rounds

let test_flooding_run_driver () =
  let net = Dynet.of_static (Gen.path 6) in
  let mc = Run.flooding_rounds ~reps:5 (Rng.create 10) net in
  check int "all complete" 5 mc.Run.completed;
  Array.iter
    (fun r -> check flt "flooding from node 0 = eccentricity 5" 5. r)
    mc.Run.times

let test_estimate_incomplete_runs () =
  (* Disconnected network: estimates must reflect the horizon, not
     crash. *)
  let g = Fixtures.of_edges 4 [ (0, 1) ] in
  let net = Dynet.of_static g in
  let e = Estimate.spread_time ~reps:10 ~horizon:25. (Rng.create 11) net in
  check int "none complete" 0 e.Estimate.completed;
  check bool "point at horizon" true (e.Estimate.point >= 24.)

let test_trace_single_point () =
  check (Alcotest.list flt) "no phases on a single point" []
    (Trace.doubling_phases [| (0., 1) |] ~n:1)

(* --- dynamic families at minimum sizes --- *)

let test_g1_minimum () =
  let net = Dichotomy.g1 ~n:4 in
  let r = Async_cut.run (Rng.create 12) net ~source:4 in
  check bool "completes" true r.Async_result.complete

let test_g2_minimum () =
  let net = Dichotomy.g2 ~n:2 in
  let r = Sync.run (Rng.create 13) net ~source:0 in
  check bool "completes" true r.Sync.complete;
  check int "exactly n rounds" 2 r.Sync.rounds

let test_diligent_smallest_admissible () =
  (* Find the smallest n where rho = 0.5 is admissible and run it. *)
  let rec find n = if Diligent.admissible ~n ~rho:0.5 then n else find (n + 4) in
  let n = find 16 in
  let net = Diligent.network ~n ~rho:0.5 () in
  let r = Async_cut.run ~horizon:1e6 (Rng.create 14) net ~source:0 in
  check bool "completes at minimum size" true r.Async_result.complete

let test_absolute_smallest_admissible () =
  let rec find n = if Absolute.admissible ~n ~rho:0.5 then n else find (n + 2) in
  let n = find 12 in
  let net = Absolute.network ~n ~rho:0.5 in
  let r = Async_cut.run ~horizon:1e6 (Rng.create 15) net ~source:1 in
  check bool "completes at minimum size" true r.Async_result.complete

let test_adversary_minimum () =
  let net = Adversary.greedy_min_cut ~n:8 ~degree_budget:2 in
  let r = Async_cut.run ~horizon:1e6 (Rng.create 16) net ~source:0 in
  check bool "completes" true r.Async_result.complete;
  Alcotest.check_raises "tiny n"
    (Invalid_argument "Adversary.greedy_min_cut: need n >= 8") (fun () ->
      ignore (Adversary.greedy_min_cut ~n:4 ~degree_budget:2))

let test_adversary_structure () =
  let n = 20 in
  let net = Adversary.greedy_min_cut ~n ~degree_budget:4 in
  let inst = net.Dynet.spawn (Rng.create 17) in
  let informed = Fixtures.bitset n [ 0; 1; 2 ] in
  let g = (Dynet.next inst ~informed).Dynet.graph in
  (* Exactly one edge crosses the informed/uninformed cut. *)
  check int "single bridge" 1 (List.length (Oracle.cut_edges g informed));
  check bool "connected" true (Traverse.is_connected g);
  check bool "budget respected (bridge adds 1)" true (Graph.max_degree g <= 5)

(* --- bounds edge cases --- *)

let test_bounds_profile_length () =
  let net = Dynet.of_static (Gen.clique 8) in
  let p = Bounds.profile ~steps:7 (Rng.create 18) net in
  check int "profile length" 7 (Array.length p)

let test_giakkoupis_disconnected () =
  (* A permanently disconnected network: M(G) is infinite, bound
     None. *)
  let g = Fixtures.of_edges 4 [ (0, 1) ] in
  let net = Dynet.of_static g in
  let r = Giakkoupis.bound ~steps:4 (Rng.create 19) net in
  check bool "infinite M" true (r.Giakkoupis.m_factor = infinity);
  check bool "no bound" true (r.Giakkoupis.bound_time = None)

let test_corollary_none_when_unreachable () =
  let profiles = Array.make 4 { Bounds.phi = 0.; rho = 0.; rho_abs = 0.; connected = false } in
  check bool "both None -> None" true
    (Bounds.corollary_1_6_time ~c:1. ~n:16 profiles = None)

(* --- export round trips --- *)

let test_write_file_roundtrip () =
  let path = Filename.temp_file "rumor_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Export.write_file path "a,b\n1,2\n";
      let ic = open_in path in
      let content = really_input_string ic (in_channel_length ic) in
      close_in ic;
      check Alcotest.string "roundtrip" "a,b\n1,2\n" content)

let () =
  Alcotest.run "edge_cases"
    [
      ( "rng/dist boundaries",
        [
          Alcotest.test_case "copy snapshot" `Quick test_rng_copy_snapshot;
          Alcotest.test_case "int bound 1" `Quick test_rng_int_bound_one;
          Alcotest.test_case "poisson sampler switch" `Slow
            test_poisson_sampler_boundary;
          Alcotest.test_case "exponential positive" `Quick test_exponential_positive;
          Alcotest.test_case "alias singleton" `Quick test_alias_singleton;
        ] );
      ( "graph boundaries",
        [
          Alcotest.test_case "empty/singleton" `Quick test_empty_and_singleton_graphs;
          Alcotest.test_case "K2 parameters" `Quick test_k2_parameters;
          Alcotest.test_case "isolated node degrees" `Quick
            test_min_degree_with_isolated;
          Alcotest.test_case "1xN grid" `Quick test_grid_1xn_is_path;
          Alcotest.test_case "circulant half stride" `Quick
            test_circulant_half_stride;
          Alcotest.test_case "builder degree tracking" `Quick
            test_builder_degree_tracking;
        ] );
      ( "degenerate simulations",
        [
          Alcotest.test_case "async single node" `Quick test_async_on_single_node;
          Alcotest.test_case "sync single node" `Quick test_sync_on_single_node;
          Alcotest.test_case "flooding single node" `Quick
            test_flooding_zero_rounds_when_source_alone;
          Alcotest.test_case "flooding driver" `Quick test_flooding_run_driver;
          Alcotest.test_case "estimate incomplete" `Quick test_estimate_incomplete_runs;
          Alcotest.test_case "trace single point" `Quick test_trace_single_point;
        ] );
      ( "families at minimum size",
        [
          Alcotest.test_case "G1 minimum" `Quick test_g1_minimum;
          Alcotest.test_case "G2 minimum" `Quick test_g2_minimum;
          Alcotest.test_case "diligent minimum" `Quick
            test_diligent_smallest_admissible;
          Alcotest.test_case "absolute minimum" `Quick
            test_absolute_smallest_admissible;
          Alcotest.test_case "adversary minimum" `Quick test_adversary_minimum;
          Alcotest.test_case "adversary structure" `Quick test_adversary_structure;
        ] );
      ( "bounds edge cases",
        [
          Alcotest.test_case "profile length" `Quick test_bounds_profile_length;
          Alcotest.test_case "giakkoupis disconnected" `Quick
            test_giakkoupis_disconnected;
          Alcotest.test_case "corollary unreachable" `Quick
            test_corollary_none_when_unreachable;
        ] );
      ( "export",
        [ Alcotest.test_case "write_file roundtrip" `Quick test_write_file_roundtrip ] );
    ]
