(* Tests for the conductance/diligence machinery: exact cut
   computations on graphs with known closed forms, the O(m) absolute
   diligence, and the spectral sweep estimator (validated against the
   exact values and Cheeger's inequality). *)

open Rumor_core.Rumor

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let flt = Alcotest.float 1e-9
let flt3 = Alcotest.float 1e-3

(* --- Cut basics --- *)

let test_volume_cut_size () =
  let g = Gen.cycle 6 in
  let s = Fixtures.bitset 6 [ 0; 1; 2 ] in
  check flt "conductance of cut" (2. /. 6.) (Cut.conductance_of_cut g s)

let test_cut_edges_orientation () =
  let g = Gen.path 4 in
  let s = Fixtures.bitset 4 [ 1; 2 ] in
  let edges = List.sort compare (Oracle.cut_edges g s) in
  check
    (Alcotest.list (Alcotest.pair int int))
    "inside first" [ (1, 0); (2, 3) ] edges

(* --- Exact conductance closed forms --- *)

let test_conductance_clique () =
  (* Phi(K_n) = ceil(n/2) / (n-1). *)
  List.iter
    (fun n ->
      let expected = float_of_int ((n / 2) + (n mod 2)) /. float_of_int (n - 1) in
      check flt3
        (Printf.sprintf "clique %d" n)
        expected
        (Cut.conductance_exact (Gen.clique n)))
    [ 4; 5; 8 ]

let test_conductance_star () =
  check flt "star" 1.0 (Cut.conductance_exact (Gen.star 8))

let test_conductance_cycle () =
  (* Phi(C_n) = 2 / n (split in half: 2 crossing edges, volume n). *)
  List.iter
    (fun n ->
      check flt3
        (Printf.sprintf "cycle %d" n)
        (2. /. float_of_int n)
        (Cut.conductance_exact (Gen.cycle n)))
    [ 6; 8; 10 ]

let test_conductance_path () =
  (* Phi(P_n): cutting the middle edge gives 1 / (n - 1) for even n. *)
  check flt3 "path 8" (1. /. 7.) (Cut.conductance_exact (Gen.path 8))

let test_conductance_hypercube () =
  (* Phi(Q_d) = 1/d (dimension cut). *)
  check flt3 "Q3" (1. /. 3.) (Cut.conductance_exact (Gen.hypercube 3));
  check flt3 "Q4" (1. /. 4.) (Cut.conductance_exact (Gen.hypercube 4))

let test_conductance_complete_bipartite () =
  (* K_{2,2} = C_4: Phi = 2/4. *)
  check flt3 "K22" 0.5 (Cut.conductance_exact (Fixtures.complete_bipartite 2 2))

let test_conductance_disconnected () =
  let g = Fixtures.of_edges 4 [ (0, 1); (2, 3) ] in
  check flt "disconnected" 0. (Cut.conductance_exact g)

let test_conductance_size_limit () =
  Alcotest.check_raises "too large"
    (Invalid_argument
       "Cut: exact enumeration limited to n <= 22 (got 23)") (fun () ->
      ignore (Cut.conductance_exact (Gen.cycle 23)))

let test_min_conductance_cut_witness () =
  let g = Gen.barbell 4 in
  let phi = Cut.conductance_exact g in
  (* Some cut achieves the reported value, and none does better. *)
  check flt "witness over all cuts" phi
    (Oracle.min_over_sets g (Cut.conductance_of_cut g));
  check flt3 "barbell bottleneck" (1. /. 13.) phi
(* Each side of the bridge: volume 2*6+1 = 13, one crossing edge. *)

(* --- Exact diligence --- *)

let test_diligence_regular_is_one () =
  (* Regular graphs are 1-diligent: dbar = d, max(d/d, d/d) = 1. *)
  List.iter
    (fun g -> check flt "regular -> 1" 1.0 (Cut.diligence_exact g))
    [ Gen.clique 6; Gen.cycle 8; Gen.hypercube 3 ]

let test_diligence_star_is_one () =
  (* The paper: stars are 1-diligent. *)
  check flt "star" 1.0 (Cut.diligence_exact (Gen.star 9))

let test_diligence_disconnected_zero () =
  check flt "disconnected" 0. (Cut.diligence_exact (Fixtures.of_edges 4 [ (0, 1); (2, 3) ]))

let test_diligence_range_property () =
  (* 1/(n-1) <= rho(G) <= 1 for connected G (paper, Section 1.1). *)
  let rng = Rng.create 55 in
  List.iter
    (fun g ->
      let rho = Cut.diligence_exact g in
      let n = float_of_int (Graph.n g) in
      check bool "lower" true (rho >= 1. /. (n -. 1.) -. 1e-12);
      check bool "upper" true (rho <= 1. +. 1e-12))
    [
      Gen.path 9;
      Fixtures.lollipop 5 4;
      Gen.clique_with_pendant 6;
      Gen.erdos_renyi rng 10 0.5;
      Fixtures.binary_tree 10;
    ]

let test_diligence_of_cut_validation () =
  let g = Gen.clique 4 in
  let whole = Fixtures.bitset 4 [ 0; 1; 2; 3 ] in
  Alcotest.check_raises "volume too large"
    (Invalid_argument "Oracle.diligence_of_cut: need 0 < vol(S) <= vol(G)/2")
    (fun () -> ignore (Oracle.diligence_of_cut g whole));
  let s = Fixtures.bitset 4 [ 0 ] in
  check flt "single node of clique" 1.0 (Oracle.diligence_of_cut g s);
  (* The Gray-code enumeration behind [Cut.diligence_exact] agrees with
     Equation 4 evaluated set by set. *)
  List.iter
    (fun g ->
      let half = Graph.volume g / 2 in
      let keep set =
        let v = Oracle.volume_of g set in
        v > 0 && v <= half
      in
      check flt "rho(G) = min rho(S)" (Cut.diligence_exact g)
        (Oracle.min_over_sets ~keep g (Oracle.diligence_of_cut g)))
    [ Fixtures.lollipop 5 4; Gen.clique_with_pendant 6; Gen.barbell 4; Gen.star 7 ]

(* --- Metrics --- *)

let test_absolute_diligence_closed_forms () =
  check flt "star" 1.0 (Metrics.absolute_diligence (Gen.star 10));
  check flt "cycle" 0.5 (Metrics.absolute_diligence (Gen.cycle 10));
  check flt "clique" (1. /. 9.) (Metrics.absolute_diligence (Gen.clique 10));
  check flt "Q3" (1. /. 3.) (Metrics.absolute_diligence (Gen.hypercube 3));
  check flt "edgeless" 0. (Metrics.absolute_diligence (Gen.empty 5))

let test_absolute_diligence_range () =
  (* rho_bar(G) >= 1/(n-1) on any nonempty graph. *)
  let rng = Rng.create 56 in
  List.iter
    (fun g ->
      let r = Metrics.absolute_diligence g in
      check bool "range" true
        (r >= 1. /. float_of_int (Graph.n g - 1) -. 1e-12 && r <= 1.))
    [ Gen.clique_with_pendant 8; Gen.erdos_renyi rng 12 0.4; Gen.barbell 5 ]

let test_mean_degree_histogram () =
  let g = Gen.star 5 in
  check flt "mean degree" (8. /. 5.)
    (float_of_int (Graph.volume g) /. float_of_int (Graph.n g));
  check
    (Alcotest.list (Alcotest.pair int int))
    "histogram" [ (1, 4); (4, 1) ] (Fixtures.degree_histogram g)

(* rho-diligence (Definition 1.2) as the strict threshold on
   [Cut.diligence_exact]: the clique is 0.5- but not 1-diligent. *)
let test_is_rho_diligent () =
  check bool "clique is 0.5-diligent" true (Cut.diligence_exact (Gen.clique 6) > 0.5);
  check bool "clique is not 1-diligent" false (Cut.diligence_exact (Gen.clique 6) > 1.0)

let test_spectral_sweep_upper_bounds_exact () =
  (* The sweep value is an attained cut, so >= Phi; on these simple
     graphs power iteration finds the optimum (or near it). *)
  let rng = Rng.create 57 in
  List.iter
    (fun g ->
      let exact = Cut.conductance_exact g in
      let est = Spectral.estimate (Rng.split rng) g in
      check bool "sweep >= exact" true (est.Spectral.sweep_value >= exact -. 1e-9);
      check bool "sweep close to exact" true (est.Spectral.sweep_value <= 2. *. exact +. 1e-9))
    [ Gen.cycle 16; Gen.hypercube 4; Gen.clique 10; Gen.barbell 8 ]

let test_spectral_cheeger_sandwich () =
  let rng = Rng.create 58 in
  List.iter
    (fun g ->
      let exact = Cut.conductance_exact g in
      let est = Spectral.estimate (Rng.split rng) g in
      check bool "cheeger lower below exact" true
        (est.Spectral.cheeger_lower <= exact +. 0.05);
      check bool "cheeger upper above exact" true
        (est.Spectral.cheeger_upper >= exact -. 0.05))
    [ Gen.cycle 12; Gen.hypercube 4 ]

let test_spectral_rejects_degenerate () =
  let rng = Rng.create 59 in
  Alcotest.check_raises "edgeless"
    (Invalid_argument "Spectral.estimate: edgeless graph") (fun () ->
      ignore (Spectral.estimate rng (Gen.empty 4)));
  let isolated = Fixtures.of_edges 3 [ (0, 1) ] in
  Alcotest.check_raises "isolated node"
    (Invalid_argument "Spectral.estimate: isolated node (conductance undefined)")
    (fun () -> ignore (Spectral.estimate rng isolated))

let test_spectral_expander_gap () =
  (* Random cubic graphs are expanders: the sweep estimate must be
     bounded away from 0 at practical sizes. *)
  let rng = Rng.create 60 in
  let g = Gen.random_connected_regular rng 200 3 in
  let phi = Spectral.conductance_sweep rng g in
  check bool "expander conductance" true (phi > 0.04)

let () =
  Alcotest.run "cut_metrics"
    [
      ( "cut basics",
        [
          Alcotest.test_case "volume/cut size" `Quick test_volume_cut_size;
          Alcotest.test_case "cut edge orientation" `Quick test_cut_edges_orientation;
        ] );
      ( "conductance exact",
        [
          Alcotest.test_case "clique" `Quick test_conductance_clique;
          Alcotest.test_case "star" `Quick test_conductance_star;
          Alcotest.test_case "cycle" `Quick test_conductance_cycle;
          Alcotest.test_case "path" `Quick test_conductance_path;
          Alcotest.test_case "hypercube" `Quick test_conductance_hypercube;
          Alcotest.test_case "complete bipartite" `Quick
            test_conductance_complete_bipartite;
          Alcotest.test_case "disconnected" `Quick test_conductance_disconnected;
          Alcotest.test_case "size limit" `Quick test_conductance_size_limit;
          Alcotest.test_case "witness cut" `Quick test_min_conductance_cut_witness;
        ] );
      ( "diligence exact",
        [
          Alcotest.test_case "regular -> 1" `Quick test_diligence_regular_is_one;
          Alcotest.test_case "star -> 1" `Quick test_diligence_star_is_one;
          Alcotest.test_case "disconnected -> 0" `Quick test_diligence_disconnected_zero;
          Alcotest.test_case "range 1/(n-1)..1" `Quick test_diligence_range_property;
          Alcotest.test_case "cut validation" `Quick test_diligence_of_cut_validation;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "absolute diligence closed forms" `Quick
            test_absolute_diligence_closed_forms;
          Alcotest.test_case "absolute diligence range" `Quick
            test_absolute_diligence_range;
          Alcotest.test_case "mean degree/histogram" `Quick test_mean_degree_histogram;
          Alcotest.test_case "is_rho_diligent" `Quick test_is_rho_diligent;
        ] );
      ( "spectral",
        [
          Alcotest.test_case "sweep upper-bounds exact" `Quick
            test_spectral_sweep_upper_bounds_exact;
          Alcotest.test_case "cheeger sandwich" `Quick test_spectral_cheeger_sandwich;
          Alcotest.test_case "rejects degenerate" `Quick test_spectral_rejects_degenerate;
          Alcotest.test_case "expander gap" `Quick test_spectral_expander_gap;
        ] );
    ]
