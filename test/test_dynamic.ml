(* Tests for the dynamic-network layer: the Dynet interface and every
   family, with special attention to the paper's constructions
   (H_{k,Delta}, the adaptive G(n,rho) families, and Figure 1's G1/G2). *)

open Rumor_core.Rumor

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let empty_informed n = Bitset.create n

(* --- Dynet basics --- *)

let test_of_static_constant () =
  let g = Gen.clique 5 in
  let net = Dynet.of_static ~phi:0.5 g in
  let inst = net.Dynet.spawn (Rng.create 1) in
  let i0 = Dynet.next inst ~informed:(empty_informed 5) in
  let i1 = Dynet.next inst ~informed:(empty_informed 5) in
  check bool "step 0 changed" true i0.Dynet.changed;
  check bool "step 1 unchanged" false i1.Dynet.changed;
  check bool "same graph" true (Graph.equal i0.Dynet.graph i1.Dynet.graph);
  check (Alcotest.option (Alcotest.float 1e-9)) "phi carried" (Some 0.5) i0.Dynet.phi

let test_of_sequence_cycles () =
  let a = Gen.cycle 4 and b = Gen.clique 4 in
  let net = Fixtures.of_sequence [| a; b |] in
  let inst = net.Dynet.spawn (Rng.create 1) in
  let g0 = (Dynet.next inst ~informed:(empty_informed 4)).Dynet.graph in
  let g1 = (Dynet.next inst ~informed:(empty_informed 4)).Dynet.graph in
  let g2 = (Dynet.next inst ~informed:(empty_informed 4)).Dynet.graph in
  check bool "step 0 = a" true (Graph.equal g0 a);
  check bool "step 1 = b" true (Graph.equal g1 b);
  check bool "step 2 = a again" true (Graph.equal g2 a)

let test_of_sequence_rejects () =
  Alcotest.check_raises "mismatched sizes"
    (Invalid_argument "Fixtures.of_sequence: node-count mismatch") (fun () ->
      ignore (Fixtures.of_sequence [| Gen.cycle 4; Gen.cycle 5 |]));
  Alcotest.check_raises "empty"
    (Invalid_argument "Fixtures.of_sequence: empty graph array") (fun () ->
      ignore (Fixtures.of_sequence [||]))


let test_of_fun_state_per_spawn () =
  (* Each spawn gets fresh closure state; step numbers are supplied in
     order. *)
  let counters = ref [] in
  let net =
    {
      Dynet.n = 4;
      name = "counter";
      source_hint = None;
      spawn =
        (fun _rng ->
          let calls = ref 0 in
          counters := calls :: !counters;
          Dynet.make_instance (fun ~step ~informed:_ ->
              incr calls;
              Alcotest.(check int) "step matches call order" !calls (step + 1);
              Dynet.info_of_graph ~changed:(step = 0) (Gen.cycle 4)));
    }
  in
  let i1 = net.Dynet.spawn (Rng.create 1) in
  let i2 = net.Dynet.spawn (Rng.create 1) in
  let informed = empty_informed 4 in
  ignore (Dynet.next i1 ~informed);
  ignore (Dynet.next i1 ~informed);
  (* i2 starts from step 0 independently. *)
  ignore (Dynet.next i2 ~informed);
  match !counters with
  | [ c2; c1 ] ->
    Alcotest.(check int) "i1 stepped twice" 2 !c1;
    Alcotest.(check int) "i2 stepped once" 1 !c2
  | _ -> Alcotest.fail "expected two spawns"

let test_step0_must_report_changed () =
  let net =
    {
      Dynet.n = 3;
      name = "bad";
      source_hint = None;
      spawn =
        (fun _rng ->
          Dynet.make_instance (fun ~step:_ ~informed:_ ->
              Dynet.info_of_graph ~changed:false (Gen.cycle 3)));
    }
  in
  let inst = net.Dynet.spawn (Rng.create 2) in
  Alcotest.check_raises "step 0 unchanged rejected"
    (Invalid_argument "Dynet.next: step 0 must report changed = true")
    (fun () -> ignore (Dynet.next inst ~informed:(empty_informed 3)))

(* --- Paper_h --- *)

let build_h ?(k = 2) ?(delta = 3) () =
  let rng = Rng.create 7 in
  let a_size = Paper_h.min_side_a ~k ~delta + 4 in
  let b_size = Paper_h.min_side_b ~k ~delta + 4 in
  let universe = a_size + b_size in
  let a = Array.init a_size (fun i -> i) in
  let b = Array.init b_size (fun i -> a_size + i) in
  let g, analysis = Paper_h.build rng ~universe ~a ~b ~k ~delta in
  (g, analysis, a_size, b_size)

let test_h_structure () =
  let k = 2 and delta = 3 in
  let g, analysis, _a_size, _ = build_h ~k ~delta () in
  check bool "connected" true (Traverse.is_connected g);
  check int "k+1 clusters" (k + 1) (Array.length analysis.Paper_h.clusters);
  (* Every cluster node has degree delta (string side(s)) + delta
     (attachment or adjacent cluster): inner clusters see two
     neighbouring clusters; end clusters see one cluster plus delta
     expander attachments — 2 delta either way. *)
  Array.iter
    (fun cluster ->
      Array.iter
        (fun u -> check int "cluster degree 2 delta" (2 * delta) (Graph.degree g u))
        cluster)
    analysis.Paper_h.clusters

let test_h_cluster_bipartite_wiring () =
  let k = 3 and delta = 2 in
  let g, analysis, _, _ = build_h ~k ~delta () in
  let clusters = analysis.Paper_h.clusters in
  for i = 0 to k - 1 do
    Array.iter
      (fun u ->
        Array.iter
          (fun v ->
            check bool "consecutive clusters fully joined" true
              (Graph.has_edge g u v))
          clusters.(i + 1))
      clusters.(i)
  done;
  (* Non-consecutive clusters are not joined. *)
  Array.iter
    (fun u ->
      Array.iter
        (fun v -> check bool "skip connection absent" false (Graph.has_edge g u v))
        clusters.(2))
    clusters.(0)

let test_h_phi_estimate_vs_exact () =
  (* On a tiny instance the analytic Theta-estimate must be within a
     constant factor of the exact conductance. *)
  let rng = Rng.create 8 in
  let k = 1 and delta = 2 in
  let a_size = Paper_h.min_side_a ~k ~delta in
  let b_size = Paper_h.min_side_b ~k ~delta in
  let universe = a_size + b_size in
  if universe <= Cut.exact_size_limit then begin
    let a = Array.init a_size (fun i -> i) in
    let b = Array.init b_size (fun i -> a_size + i) in
    let g, analysis = Paper_h.build rng ~universe ~a ~b ~k ~delta in
    let exact = Cut.conductance_exact g in
    let est = analysis.Paper_h.phi_estimate in
    check bool "estimate within 8x of exact" true
      (est /. exact < 8. && exact /. est < 8.)
  end

let test_h_rejects_small_sides () =
  let rng = Rng.create 9 in
  Alcotest.check_raises "A too small"
    (Invalid_argument "Paper_h.build: |A| = 3 < 8") (fun () ->
      ignore
        (Paper_h.build rng ~universe:30 ~a:[| 0; 1; 2 |]
           ~b:(Array.init 20 (fun i -> i + 3))
           ~k:2 ~delta:3))

let test_default_k_grows () =
  check bool "k(10^2) >= 1" true (Paper_h.default_k 100 >= 1);
  check bool "k grows" true (Paper_h.default_k 100_000 > Paper_h.default_k 100)

(* --- Diligent G(n, rho) --- *)

let test_diligent_initial_structure () =
  let n = 256 and rho = 0.25 in
  let net = Diligent.network ~n ~rho () in
  check int "n" n net.Dynet.n;
  let inst = net.Dynet.spawn (Rng.create 3) in
  let info = Dynet.next inst ~informed:(empty_informed n) in
  check bool "connected" true (Traverse.is_connected info.Dynet.graph);
  check bool "phi analytic present" true (info.Dynet.phi <> None);
  check bool "rho analytic ~ rho" true
    (match info.Dynet.rho with
    | Some r -> abs_float (r -. rho) < 0.26
    | None -> false)

let test_diligent_rebuild_on_b_shrink () =
  let n = 256 and rho = 0.25 in
  let net = Diligent.network ~n ~rho () in
  let inst = net.Dynet.spawn (Rng.create 4) in
  let informed = empty_informed n in
  ignore (Bitset.add informed 0);
  let i0 = Dynet.next inst ~informed in
  (* Inform one B-side node (ids >= n/4 start in B). *)
  ignore (Bitset.add informed (n - 1));
  let i1 = Dynet.next inst ~informed in
  check bool "rebuild when B shrinks" true i1.Dynet.changed;
  (* No further defection -> frozen. *)
  let i2 = Dynet.next inst ~informed in
  check bool "frozen without defection" false i2.Dynet.changed;
  check bool "graphs differ after rebuild" false
    (Graph.equal i0.Dynet.graph i1.Dynet.graph)

let test_diligent_admissibility () =
  check bool "tiny rho at small n inadmissible" false
    (Diligent.admissible ~n:64 ~rho:0.01);
  check bool "moderate ok" true (Diligent.admissible ~n:512 ~rho:0.25);
  Alcotest.check_raises "network rejects"
    (Invalid_argument "Diligent.network: (n=64, rho=0.01, k=3) not admissible")
    (fun () -> ignore (Diligent.network ~k:3 ~n:64 ~rho:0.01 ()))

let test_delta_of_rho () =
  check int "rho = 1" 1 (Diligent.delta_of_rho 1.0);
  check int "rho = 0.3" 4 (Diligent.delta_of_rho 0.3);
  Alcotest.check_raises "rho > 1"
    (Invalid_argument "Diligent.delta_of_rho: need 0 < rho <= 1") (fun () ->
      ignore (Diligent.delta_of_rho 1.5))

(* --- Absolute family --- *)

let test_absolute_initial_structure () =
  let n = 240 and rho = 0.1 in
  let net = Absolute.network ~n ~rho in
  let delta = Absolute.delta_of_rho rho in
  let inst = net.Dynet.spawn (Rng.create 5) in
  let g = (Dynet.next inst ~informed:(empty_informed n)).Dynet.graph in
  check bool "connected" true (Traverse.is_connected g);
  (* Degree profile: node 0 (special) delta+1 with the bridge; A-side
     others 4; B-side delta except the bridged one delta+1. *)
  check int "special node degree" (delta + 1) (Graph.degree g 0);
  let hist = Fixtures.degree_histogram g in
  let count d = try List.assoc d hist with Not_found -> 0 in
  check int "two bridge endpoints at delta+1" 2 (count (delta + 1));
  check int "A-side regulars at 4" ((n / 2) - 1) (count 4);
  check int "B-side regulars at delta" ((n - (n / 2)) - 1) (count delta);
  (* Absolute diligence is exactly 1/(delta+1). *)
  check (Alcotest.float 1e-9) "rho_bar exact"
    (1. /. float_of_int (delta + 1))
    (Metrics.absolute_diligence g)

let test_absolute_delta_even () =
  check int "rho 0.1 -> 10" 10 (Absolute.delta_of_rho 0.1);
  check int "rho 0.35 -> even 4" 4 (Absolute.delta_of_rho 0.35);
  check int "rho 1 -> 2" 2 (Absolute.delta_of_rho 1.0)

let test_absolute_freeze () =
  let n = 240 and rho = 0.1 in
  let net = Absolute.network ~n ~rho in
  let inst = net.Dynet.spawn (Rng.create 6) in
  let informed = empty_informed n in
  ignore (Bitset.add informed 1);
  let _ = Dynet.next inst ~informed in
  (* Inform everything: B shrinks below n/6 -> frozen forever after. *)
  for u = 0 to n - 1 do
    ignore (Bitset.add informed u)
  done;
  let i1 = Dynet.next inst ~informed in
  check bool "freeze keeps graph" false i1.Dynet.changed;
  let i2 = Dynet.next inst ~informed in
  check bool "still frozen" false i2.Dynet.changed;
  check bool "same graph" true (Graph.equal i1.Dynet.graph i2.Dynet.graph)

let test_regular_except_one_fast () =
  (* Once informed B-nodes defect, A's ids are no longer contiguous:
     the A-side gadget must still give every A-node degree 4 except
     the special node 0 (Delta, plus the bridge), and stay connected. *)
  let n = 240 and rho = 0.1 in
  let net = Absolute.network ~n ~rho in
  let delta = Absolute.delta_of_rho rho in
  let inst = net.Dynet.spawn (Rng.create 8) in
  let informed = empty_informed n in
  ignore (Dynet.next inst ~informed);
  for u = n / 2 to n - 1 do
    if u mod 3 = 0 then ignore (Bitset.add informed u)
  done;
  let step = Dynet.next inst ~informed in
  check bool "rewired" true step.Dynet.changed;
  let g = step.Dynet.graph in
  check int "special degree" (delta + 1) (Graph.degree g 0);
  let in_a u = u < n / 2 || Bitset.mem informed u in
  for u = 1 to n - 1 do
    if in_a u then check int "others degree 4" 4 (Graph.degree g u)
  done;
  check bool "connected" true (Traverse.is_connected g)

let test_absolute_admissibility () =
  check bool "rho too small for n" false (Absolute.admissible ~n:60 ~rho:0.02);
  check bool "ok" true (Absolute.admissible ~n:240 ~rho:0.1)

(* --- Dichotomy (Figure 1) --- *)

let test_g1_evolution () =
  let n = 8 in
  let net = Dichotomy.g1 ~n in
  check int "n+1 nodes" (n + 1) net.Dynet.n;
  check (Alcotest.option int) "source is pendant" (Some n) net.Dynet.source_hint;
  let inst = net.Dynet.spawn (Rng.create 7) in
  let informed = empty_informed (n + 1) in
  let g0 = (Dynet.next inst ~informed).Dynet.graph in
  check int "pendant degree" 1 (Graph.degree g0 n);
  let i1 = Dynet.next inst ~informed in
  check bool "switch at step 1" true i1.Dynet.changed;
  let i2 = Dynet.next inst ~informed in
  check bool "frozen from step 2" false i2.Dynet.changed

let test_g2_center_adaptivity () =
  let n = 12 in
  let net = Dichotomy.g2 ~n in
  let inst = net.Dynet.spawn (Rng.create 8) in
  let informed = empty_informed (n + 1) in
  ignore (Bitset.add informed 0);
  let g0 = (Dynet.next inst ~informed).Dynet.graph in
  check int "initial centre n" n (Graph.degree g0 n);
  (* Mark many nodes informed; the next centre must be uninformed. *)
  List.iter (fun u -> ignore (Bitset.add informed u)) [ 1; 2; 3; 4; 5; n ];
  for _ = 1 to 5 do
    let g = (Dynet.next inst ~informed).Dynet.graph in
    let center = ref (-1) in
    for u = 0 to n do
      if Graph.degree g u = n then center := u
    done;
    check bool "star shape" true (!center >= 0);
    check bool "centre uninformed" false (Bitset.mem informed !center)
  done

let test_g2_all_informed_fallback () =
  let n = 6 in
  let net = Dichotomy.g2 ~n in
  let inst = net.Dynet.spawn (Rng.create 9) in
  let informed = empty_informed (n + 1) in
  for u = 0 to n do
    ignore (Bitset.add informed u)
  done;
  let _ = Dynet.next inst ~informed in
  (* Must not loop forever; any star is fine. *)
  let g = (Dynet.next inst ~informed).Dynet.graph in
  check int "still a star" n (Graph.m g)

let test_star_graph_invalid_center () =
  Alcotest.check_raises "bad centre"
    (Invalid_argument "Dichotomy.star_graph: bad center") (fun () ->
      ignore (Dichotomy.star_graph ~n:4 ~center:9))

(* --- Alternating --- *)

let test_alternating_periods () =
  let n = 16 in
  let net = Alternating.network ~n () in
  let inst = net.Dynet.spawn (Rng.create 10) in
  let informed = empty_informed n in
  let g0 = (Dynet.next inst ~informed).Dynet.graph in
  let g1 = (Dynet.next inst ~informed).Dynet.graph in
  let g2 = (Dynet.next inst ~informed).Dynet.graph in
  check int "even step complete" (n - 1) (Graph.max_degree g0);
  check bool "odd step cubic" true
    (Graph.min_degree g1 = 3 && Graph.max_degree g1 = 3);
  check bool "cubic connected" true (Traverse.is_connected g1);
  check bool "period 2" true (Graph.equal g0 g2)

let test_alternating_rejects_odd () =
  Alcotest.check_raises "odd n"
    (Invalid_argument "Alternating.network: need even n >= 6") (fun () ->
      ignore (Alternating.network ~n:15 ()))

let test_clique_conductance_formula () =
  check (Alcotest.float 1e-9) "K4" (2. /. 3.) (Alternating.clique_conductance 4);
  check (Alcotest.float 1e-9) "K5" (3. /. 4.) (Alternating.clique_conductance 5);
  (* Matches exact enumeration. *)
  check (Alcotest.float 1e-9) "matches exact"
    (Cut.conductance_exact (Gen.clique 7))
    (Alternating.clique_conductance 7)

(* --- Markovian --- *)

let test_markovian_stationary () =
  check (Alcotest.float 1e-9) "p/(p+q)" 0.25
    (Markovian.stationary_edge_probability ~p:0.1 ~q:0.3)

let test_markovian_dynamics () =
  let n = 24 in
  let net = Markovian.network ~n ~p:0.2 ~q:0.2 () in
  let inst = net.Dynet.spawn (Rng.create 11) in
  let informed = empty_informed n in
  let g0 = (Dynet.next inst ~informed).Dynet.graph in
  check int "starts empty" 0 (Graph.m g0);
  let g5 =
    let g = ref g0 in
    for _ = 1 to 5 do
      g := (Dynet.next inst ~informed).Dynet.graph
    done;
    !g
  in
  (* After a few steps the edge count should be near the stationary
     density 0.5 * C(n,2); allow wide tolerance. *)
  let expected = 0.5 *. float_of_int (n * (n - 1) / 2) in
  check bool "density near stationary" true
    (abs_float (float_of_int (Graph.m g5) -. expected) < 0.35 *. expected)

let test_markovian_absorbing_edges () =
  (* q = 0: edges never die, so edge count is non-decreasing. *)
  let n = 12 in
  let net = Markovian.network ~n ~p:0.3 ~q:0. () in
  let inst = net.Dynet.spawn (Rng.create 12) in
  let informed = empty_informed n in
  let prev = ref (-1) in
  for _ = 1 to 6 do
    let m = Graph.m (Dynet.next inst ~informed).Dynet.graph in
    check bool "monotone" true (m >= !prev);
    prev := m
  done

(* --- Mobile --- *)

let test_torus_distance () =
  (* Contact is Chebyshev distance with wraparound: on a 3x3 torus
     every pair of cells is within distance 1 (without wraparound,
     (0, 0) and (2, 2) would be 2 apart; with Manhattan or Euclidean
     distance, (0, 0) and (1, 1) would be too far), so radius 1 joins
     every pair of agents at every step. *)
  let net = Mobile.network ~agents:6 ~width:3 ~height:3 ~radius:1 in
  let inst = net.Dynet.spawn (Rng.create 14) in
  let informed = empty_informed 6 in
  for _ = 1 to 5 do
    check int "complete" 15 (Graph.m (Dynet.next inst ~informed).Dynet.graph)
  done

let test_mobile_network_steps () =
  let net = Mobile.network ~agents:10 ~width:8 ~height:8 ~radius:2 in
  let inst = net.Dynet.spawn (Rng.create 13) in
  let informed = empty_informed 10 in
  for _ = 1 to 5 do
    let g = (Dynet.next inst ~informed).Dynet.graph in
    check int "node count stable" 10 (Graph.n g)
  done

let () =
  Alcotest.run "dynamic"
    [
      ( "dynet",
        [
          Alcotest.test_case "of_static" `Quick test_of_static_constant;
          Alcotest.test_case "of_sequence cycles" `Quick test_of_sequence_cycles;
          Alcotest.test_case "of_sequence rejects" `Quick test_of_sequence_rejects;
          Alcotest.test_case "of_fun per-spawn state" `Quick
            test_of_fun_state_per_spawn;
          Alcotest.test_case "step-0 changed contract" `Quick
            test_step0_must_report_changed;
        ] );
      ( "paper_h",
        [
          Alcotest.test_case "structure" `Quick test_h_structure;
          Alcotest.test_case "bipartite wiring" `Quick test_h_cluster_bipartite_wiring;
          Alcotest.test_case "phi estimate vs exact" `Quick test_h_phi_estimate_vs_exact;
          Alcotest.test_case "rejects small sides" `Quick test_h_rejects_small_sides;
          Alcotest.test_case "default k" `Quick test_default_k_grows;
        ] );
      ( "diligent",
        [
          Alcotest.test_case "initial structure" `Quick test_diligent_initial_structure;
          Alcotest.test_case "rebuild on B shrink" `Quick
            test_diligent_rebuild_on_b_shrink;
          Alcotest.test_case "admissibility" `Quick test_diligent_admissibility;
          Alcotest.test_case "delta_of_rho" `Quick test_delta_of_rho;
        ] );
      ( "absolute",
        [
          Alcotest.test_case "initial structure" `Quick test_absolute_initial_structure;
          Alcotest.test_case "delta even" `Quick test_absolute_delta_even;
          Alcotest.test_case "freeze below n/6" `Quick test_absolute_freeze;
          Alcotest.test_case "regular-except-one gadget" `Quick
            test_regular_except_one_fast;
          Alcotest.test_case "admissibility" `Quick test_absolute_admissibility;
        ] );
      ( "dichotomy",
        [
          Alcotest.test_case "G1 evolution" `Quick test_g1_evolution;
          Alcotest.test_case "G2 centre adaptivity" `Quick test_g2_center_adaptivity;
          Alcotest.test_case "G2 all-informed fallback" `Quick
            test_g2_all_informed_fallback;
          Alcotest.test_case "star invalid centre" `Quick test_star_graph_invalid_center;
        ] );
      ( "alternating",
        [
          Alcotest.test_case "period structure" `Quick test_alternating_periods;
          Alcotest.test_case "rejects odd n" `Quick test_alternating_rejects_odd;
          Alcotest.test_case "clique conductance formula" `Quick
            test_clique_conductance_formula;
        ] );
      ( "markovian",
        [
          Alcotest.test_case "stationary probability" `Quick test_markovian_stationary;
          Alcotest.test_case "dynamics" `Quick test_markovian_dynamics;
          Alcotest.test_case "absorbing edges" `Quick test_markovian_absorbing_edges;
        ] );
      ( "mobile",
        [
          Alcotest.test_case "torus distance" `Quick test_torus_distance;
          Alcotest.test_case "steps" `Quick test_mobile_network_steps;
        ] );
    ]
