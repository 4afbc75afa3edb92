(* Tests for the bound calculators: constants, crossing-time search,
   profiles, and the literature bounds. *)

open Rumor_core.Rumor

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let flt = Alcotest.float 1e-9

let test_constants () =
  (* c0 = 1/2 - 1/e, the constant of Lemma 2.2 / Lemma 3.1. *)
  let c0 = 0.5 -. (1. /. exp 1.) in
  check flt "C(1) = 30/c0" (30. /. c0) (Bounds.big_c ~c:1.);
  check flt "C(2) = 40/c0" (40. /. c0) (Bounds.big_c ~c:2.);
  Alcotest.check_raises "c < 1"
    (Invalid_argument "Bounds.big_c: Theorem 1.1 requires c >= 1") (fun () ->
      ignore (Bounds.big_c ~c:0.5))

let test_first_time () =
  (* f(t) = 1 each step: crossing target 2.5 happens at t = 2
     (cumulative 3). *)
  check (Alcotest.option int) "constant steps" (Some 2)
    (Bounds.first_time ~target:2.5 (fun _ -> 1.) ~max_steps:10);
  check (Alcotest.option int) "exact hit" (Some 1)
    (Bounds.first_time ~target:2.0 (fun _ -> 1.) ~max_steps:10);
  check (Alcotest.option int) "never" None
    (Bounds.first_time ~target:100. (fun _ -> 1.) ~max_steps:10);
  check (Alcotest.option int) "immediate" (Some 0)
    (Bounds.first_time ~target:0.5 (fun _ -> 1.) ~max_steps:10);
  Alcotest.check_raises "nan contribution"
    (Invalid_argument "Bounds.first_time: NaN step contribution") (fun () ->
      ignore (Bounds.first_time ~target:1. (fun _ -> Float.nan) ~max_steps:3))

let test_closed_forms () =
  let n = 100 in
  check flt "thm 1.1 closed form"
    (Bounds.big_c ~c:1. *. log 100. /. 0.25)
    (Bounds.theorem_1_1_closed_form ~c:1. ~n ~phi_rho:0.25);
  check flt "thm 1.3 closed form" 4000.
    (Bounds.theorem_1_3_closed_form ~n ~rho_abs:0.05);
  Alcotest.check_raises "zero phi_rho"
    (Invalid_argument "Bounds.theorem_1_1_closed_form: phi_rho must be positive")
    (fun () -> ignore (Bounds.theorem_1_1_closed_form ~c:1. ~n ~phi_rho:0.))

let test_profile_uses_analytic () =
  let net = Dynet.of_static ~phi:0.4 ~rho:0.9 ~rho_abs:0.1 (Gen.clique 6) in
  let p = (Bounds.profile ~steps:1 (Rng.create 1) net).(0) in
  check flt "phi" 0.4 p.Bounds.phi;
  check flt "rho" 0.9 p.Bounds.rho;
  check flt "rho_abs" 0.1 p.Bounds.rho_abs;
  check bool "connected inferred" true p.Bounds.connected

let test_profile_exact_fallback () =
  (* No analytic values + small n: the profile computes exact
     parameters. *)
  let net = Dynet.of_static (Gen.cycle 8) in
  let p = (Bounds.profile ~steps:1 (Rng.create 1) net).(0) in
  check flt "exact phi" (2. /. 8.) p.Bounds.phi;
  check flt "exact rho (regular)" 1.0 p.Bounds.rho;
  check flt "exact rho_abs" 0.5 p.Bounds.rho_abs

let test_profile_disconnected () =
  let g = Fixtures.of_edges 4 [ (0, 1); (2, 3) ] in
  let net = Dynet.of_static g in
  let p = (Bounds.profile ~steps:1 (Rng.create 1) net).(0) in
  check bool "disconnected" false p.Bounds.connected;
  check flt "phi 0" 0. p.Bounds.phi;
  check flt "rho 0" 0. p.Bounds.rho

let test_theorem_times_on_profiles () =
  let mk phi rho rho_abs connected = { Bounds.phi; rho; rho_abs; connected } in
  let n = 64 in
  (* Constant phi rho = 0.5: crossing at ceil(target / 0.5) - 1. *)
  let profiles = Array.make 2048 (mk 0.5 1.0 0.25 true) in
  let target = Bounds.big_c ~c:1. *. log (float_of_int n) in
  let expect = int_of_float (Float.ceil (target /. 0.5)) - 1 in
  (match Bounds.theorem_1_1_time ~c:1. ~n profiles with
  | Some t -> check bool "within 1 step" true (abs (t - expect) <= 1)
  | None -> Alcotest.fail "bound not reached");
  (* Theorem 1.3: contributions only on connected steps. *)
  let mixed =
    Array.init 4096 (fun i ->
        if i mod 2 = 0 then mk 0.5 1.0 0.5 true else mk 0. 0. 0.5 false)
  in
  (match Bounds.theorem_1_3_time ~n mixed with
  | Some t ->
    (* Need 2n/0.5 = 256 connected steps -> t ~ 511. *)
    check bool "disconnected steps skipped" true (abs (t - 510) <= 2)
  | None -> Alcotest.fail "abs bound not reached");
  (* Corollary 1.6 is the min. *)
  let c16 = Bounds.corollary_1_6_time ~c:1. ~n mixed in
  let t11 = Bounds.theorem_1_1_time ~c:1. ~n mixed in
  let t13 = Bounds.theorem_1_3_time ~n mixed in
  (match (c16, t11, t13) with
  | Some c, Some a, Some b -> check int "min" (min a b) c
  | _ -> Alcotest.fail "corollary components missing")

let test_giakkoupis_m_factor () =
  let m_of net = (Giakkoupis.bound ~steps:4 (Rng.create 1) net).Giakkoupis.m_factor in
  check flt "uniform degrees" 1.0 (m_of (Dynet.of_static (Gen.cycle 6)));
  (* Node 0 has degree 2 at even steps and 7 at odd ones; every other
     node's degree ratio is at most 3. *)
  let wheel_hub = Fixtures.of_edges 8 (List.init 7 (fun i -> (0, i + 1))) in
  let ring = Gen.cycle 8 in
  check flt "fluctuating" (7. /. 2.)
    (m_of (Fixtures.interleave [ Dynet.of_static ring; Dynet.of_static wheel_hub ]));
  let isolated = Fixtures.of_edges 3 [ (0, 1) ] in
  let r = Giakkoupis.bound ~steps:4 (Rng.create 1) (Dynet.of_static isolated) in
  check bool "isolated node -> infinite" true (r.Giakkoupis.m_factor = infinity);
  check bool "isolated node -> no bound" true (r.Giakkoupis.bound_time = None)

let test_giakkoupis_on_static () =
  (* On a static regular graph M = 1 and the bound reduces to
     sum phi >= log n. *)
  let n = 16 in
  let net = Dynet.of_static ~phi:0.5 (Gen.clique n) in
  let r = Giakkoupis.bound ~steps:64 (Rng.create 2) net in
  check flt "M = 1" 1.0 r.Giakkoupis.m_factor;
  (match r.Giakkoupis.bound_time with
  | Some t ->
    check bool "crossing near log n / phi" true
      (abs (t - int_of_float (log (float_of_int n) /. 0.5)) <= 1)
  | None -> Alcotest.fail "bound not reached")

let test_giakkoupis_alternating_m () =
  let n = 16 in
  let net = Alternating.network ~n () in
  let r = Giakkoupis.bound ~steps:8 (Rng.create 3) net in
  check flt "M = (n-1)/3" (float_of_int (n - 1) /. 3.) r.Giakkoupis.m_factor

let test_static_bounds () =
  check flt "chierichetti" (log 100. /. 0.1)
    (Static_bounds.chierichetti_rounds ~phi:0.1 100);
  check flt "n log n" (100. *. log 100.) (Static_bounds.static_async_worst_case 100);
  check flt "karp" (log 128. /. log 2.) (Static_bounds.karp_clique_rounds 128);
  check flt "coupling" (5. +. log 100.) (Static_bounds.async_from_sync ~ts:5. 100);
  Alcotest.check_raises "phi <= 0"
    (Invalid_argument "Static_bounds.chierichetti_rounds: phi must be positive")
    (fun () -> ignore (Static_bounds.chierichetti_rounds ~phi:0. 10))

let () =
  Alcotest.run "bounds"
    [
      ( "constants/search",
        [
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "first_time" `Quick test_first_time;
          Alcotest.test_case "closed forms" `Quick test_closed_forms;
        ] );
      ( "profiles",
        [
          Alcotest.test_case "analytic preferred" `Quick test_profile_uses_analytic;
          Alcotest.test_case "exact fallback" `Quick test_profile_exact_fallback;
          Alcotest.test_case "disconnected" `Quick test_profile_disconnected;
          Alcotest.test_case "theorem times" `Quick test_theorem_times_on_profiles;
        ] );
      ( "giakkoupis",
        [
          Alcotest.test_case "m factor" `Quick test_giakkoupis_m_factor;
          Alcotest.test_case "static regular" `Quick test_giakkoupis_on_static;
          Alcotest.test_case "alternating M" `Quick test_giakkoupis_alternating_m;
        ] );
      ("static anchors", [ Alcotest.test_case "formulas" `Quick test_static_bounds ]);
    ]
