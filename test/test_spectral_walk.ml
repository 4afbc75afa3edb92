(* The dense eigensolver oracle (test/eigen.ml) on matrices with known
   eigenvalues and on classical graph spectra, then used to check the
   library's conductance and spectral-gap computations (Cut, Spectral). *)

open Rumor_core.Rumor

let check = Alcotest.check
let bool = Alcotest.bool
let flt6 = Alcotest.float 1e-6
let flt3 = Alcotest.float 1e-3

(* --- Jacobi eigensolver --- *)

let test_jacobi_2x2 () =
  (* [[2, 1], [1, 2]] has eigenvalues 1 and 3. *)
  let eig = Eigen.jacobi [| [| 2.; 1. |]; [| 1.; 2. |] |] in
  check flt6 "lambda_1" 1. eig.(0);
  check flt6 "lambda_2" 3. eig.(1)

let test_jacobi_diagonal () =
  let eig = Eigen.jacobi [| [| 5.; 0. |]; [| 0.; -2. |] |] in
  check flt6 "sorted" (-2.) eig.(0);
  check flt6 "sorted hi" 5. eig.(1)

let test_jacobi_rejects () =
  Alcotest.check_raises "asymmetric" (Invalid_argument "Eigen.jacobi: asymmetric matrix")
    (fun () -> ignore (Eigen.jacobi [| [| 1.; 2. |]; [| 3.; 1. |] |]));
  Alcotest.check_raises "empty" (Invalid_argument "Eigen.jacobi: empty matrix")
    (fun () -> ignore (Eigen.jacobi [||]))

let test_jacobi_trace_invariant () =
  let rng = Rng.create 1 in
  for _ = 1 to 10 do
    let n = 6 in
    let a = Array.make_matrix n n 0. in
    for i = 0 to n - 1 do
      for j = i to n - 1 do
        let v = Rng.float rng -. 0.5 in
        a.(i).(j) <- v;
        a.(j).(i) <- v
      done
    done;
    let trace = ref 0. in
    for i = 0 to n - 1 do
      trace := !trace +. a.(i).(i)
    done;
    let eig = Eigen.jacobi a in
    let sum = Array.fold_left ( +. ) 0. eig in
    check flt6 "eigenvalue sum = trace" !trace sum
  done

(* --- known graph spectra --- *)

let test_spectrum_complete_graph () =
  (* K_n normalized adjacency: 1 once, -1/(n-1) with multiplicity n-1. *)
  let n = 7 in
  let eig = Eigen.normalized_adjacency_spectrum (Gen.clique n) in
  check flt6 "top" 1. eig.(n - 1);
  for i = 0 to n - 2 do
    check flt6 "bulk" (-1. /. float_of_int (n - 1)) eig.(i)
  done

let test_spectrum_cycle () =
  (* C_n: eigenvalues cos(2 pi k / n). *)
  let n = 8 in
  let eig = Eigen.normalized_adjacency_spectrum (Gen.cycle n) in
  let expected =
    Array.init n (fun k -> cos (2. *. Float.pi *. float_of_int k /. float_of_int n))
  in
  Array.sort compare expected;
  Array.iteri (fun i e -> check flt6 "cycle eigenvalue" expected.(i) e) eig

let test_spectrum_complete_bipartite () =
  (* K_{a,b} normalized adjacency: +-1 and 0s. *)
  let eig = Eigen.normalized_adjacency_spectrum (Fixtures.complete_bipartite 3 4) in
  check flt6 "top 1" 1. eig.(6);
  check flt6 "bottom -1" (-1.) eig.(0);
  for i = 1 to 5 do
    check flt6 "zeros" 0. eig.(i)
  done

let test_spectrum_hypercube_gap () =
  (* Q_d: adjacency eigenvalues (d - 2i)/d; lambda_2 = 1 - 2/d, so the
     normalized Laplacian gap is 2/d. *)
  let d = 4 in
  let gap = Eigen.spectral_gap (Gen.hypercube d) in
  check flt6 "hypercube gap 2/d" (2. /. float_of_int d) gap

let test_cheeger_sandwich_exact () =
  List.iter
    (fun g ->
      let lo, hi = Eigen.cheeger_bounds g in
      let phi = Cut.conductance_exact g in
      check bool "lower" true (lo <= phi +. 1e-9);
      check bool "upper" true (hi >= phi -. 1e-9))
    [ Gen.cycle 12; Gen.clique 8; Gen.hypercube 3; Gen.barbell 6; Gen.star 9 ]

let test_eigen_vs_power_iteration () =
  (* The exact gap and the power-iteration estimate agree on the lazy
     walk's lambda_2 (Spectral uses the lazy operator: its gap is half
     the Laplacian gap). *)
  let rng = Rng.create 2 in
  let g = Gen.random_connected_regular rng 40 4 in
  let exact_lazy_gap = Eigen.spectral_gap g /. 2. in
  let est = Spectral.estimate ~iterations:3000 rng g in
  check flt3 "gap agreement" exact_lazy_gap est.Spectral.gap

let () =
  Alcotest.run "spectral_walk"
    [
      ( "jacobi",
        [
          Alcotest.test_case "2x2" `Quick test_jacobi_2x2;
          Alcotest.test_case "diagonal" `Quick test_jacobi_diagonal;
          Alcotest.test_case "rejects" `Quick test_jacobi_rejects;
          Alcotest.test_case "trace invariant" `Quick test_jacobi_trace_invariant;
        ] );
      ( "known spectra",
        [
          Alcotest.test_case "complete graph" `Quick test_spectrum_complete_graph;
          Alcotest.test_case "cycle" `Quick test_spectrum_cycle;
          Alcotest.test_case "complete bipartite" `Quick
            test_spectrum_complete_bipartite;
          Alcotest.test_case "hypercube gap" `Quick test_spectrum_hypercube_gap;
          Alcotest.test_case "cheeger sandwich (exact)" `Quick
            test_cheeger_sandwich_exact;
          Alcotest.test_case "eigen vs power iteration" `Quick
            test_eigen_vs_power_iteration;
        ] );
    ]
