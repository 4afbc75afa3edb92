(* Tests for the simulation engines.  The load-bearing one is the
   distribution-level agreement between the fast cut-rate engine and
   the literal per-tick engine. *)

open Rumor_core.Rumor

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* --- Protocol --- *)

let test_protocol_apply () =
  (* Which way a contact can carry the rumor under each protocol. *)
  let open Protocol in
  check bool "push transmits caller->callee" true (caller_informs_callee Push);
  check bool "push does not pull" false (callee_informs_caller Push);
  check bool "pull retrieves" true (callee_informs_caller Pull);
  check bool "pull does not push" false (caller_informs_callee Pull);
  check bool "push-pull both" true
    (caller_informs_callee Push_pull && callee_informs_caller Push_pull)

(* --- Async engines: basics --- *)

let test_cut_single_edge_mean () =
  (* On K2 the informing rate is 1/1 + 1/1 = 2: spread time is
     Exp(2), mean 0.5. *)
  let net = Dynet.of_static (Gen.clique 2) in
  let rng = Rng.create 1 in
  let samples =
    Array.init 4000 (fun _ ->
        let r = Async_cut.run (Rng.split rng) net ~source:0 in
        r.Async_result.time)
  in
  let m = Descriptive.mean samples in
  check bool "mean ~ 0.5" true (abs_float (m -. 0.5) < 0.03)

let test_tick_single_edge_mean () =
  let net = Dynet.of_static (Gen.clique 2) in
  let rng = Rng.create 2 in
  let samples =
    Array.init 4000 (fun _ ->
        let r = Async_tick.run (Rng.split rng) net ~source:0 in
        r.Async_result.time)
  in
  let m = Descriptive.mean samples in
  check bool "mean ~ 0.5" true (abs_float (m -. 0.5) < 0.03)

let test_async_completes_and_monotone () =
  let net = Dynet.of_static (Gen.cycle 20) in
  let r = Async_cut.run ~record_trace:true (Rng.create 3) net ~source:5 in
  check bool "complete" true r.Async_result.complete;
  check bool "all informed" true (Bitset.is_full r.Async_result.informed);
  check int "n-1 informing events" 19 r.Async_result.events;
  (* Trace is monotone in time and count. *)
  let trace = r.Async_result.trace in
  check int "trace length" 20 (Array.length trace);
  for i = 1 to Array.length trace - 1 do
    let t0, c0 = trace.(i - 1) and t1, c1 = trace.(i) in
    check bool "time monotone" true (t1 >= t0);
    check int "count increments" (c0 + 1) c1
  done

let test_async_source_validation () =
  let net = Dynet.of_static (Gen.cycle 5) in
  Alcotest.check_raises "bad source"
    (Invalid_argument "Async_cut.run: source 9 out of range") (fun () ->
      ignore (Async_cut.run (Rng.create 1) net ~source:9));
  Alcotest.check_raises "tick bad source"
    (Invalid_argument "Async_tick.run: source -1 out of range") (fun () ->
      ignore (Async_tick.run (Rng.create 1) net ~source:(-1)))

let test_async_horizon_incomplete () =
  (* Disconnected static graph: can never complete; must stop at the
     horizon. *)
  let g = Fixtures.of_edges 4 [ (0, 1) ] in
  let net = Dynet.of_static g in
  let r = Async_cut.run ~horizon:50. (Rng.create 4) net ~source:0 in
  check bool "incomplete" false r.Async_result.complete;
  check bool "stopped at horizon" true (r.Async_result.time >= 49.);
  check int "informed only the component" 2
    (Bitset.cardinal r.Async_result.informed);
  let rt = Async_tick.run ~horizon:50. (Rng.create 4) net ~source:0 in
  check bool "tick incomplete" false rt.Async_result.complete

let test_engines_agree_in_distribution () =
  (* Means within Monte-Carlo tolerance across a zoo of graphs. *)
  let rng = Rng.create 5 in
  let reps = 400 in
  List.iter
    (fun (label, g) ->
      let net = Dynet.of_static g in
      let sample engine =
        let xs =
          Array.init reps (fun _ ->
              let child = Rng.split rng in
              match engine with
              | `Cut -> (Async_cut.run child net ~source:0).Async_result.time
              | `Tick -> (Async_tick.run child net ~source:0).Async_result.time)
        in
        (Descriptive.mean xs, Descriptive.std_error xs)
      in
      let mc, sc = sample `Cut in
      let mt, st = sample `Tick in
      let gap = abs_float (mc -. mt) in
      let tol = 5. *. sqrt ((sc *. sc) +. (st *. st)) in
      check bool (label ^ ": means agree") true (gap < tol))
    [
      ("K8", Gen.clique 8);
      ("star 12", Gen.star 12);
      ("cycle 10", Gen.cycle 10);
      ("path 8", Gen.path 8);
      ("barbell 5", Gen.barbell 5);
    ]

let test_engines_agree_on_dynamic () =
  (* Same check on the adaptive star (graph changes every step). *)
  let rng = Rng.create 6 in
  let reps = 400 in
  let net = Dichotomy.g2 ~n:16 in
  let sample engine =
    let xs =
      Array.init reps (fun _ ->
          let child = Rng.split rng in
          match engine with
          | `Cut -> (Async_cut.run child net ~source:0).Async_result.time
          | `Tick -> (Async_tick.run child net ~source:0).Async_result.time)
    in
    (Descriptive.mean xs, Descriptive.std_error xs)
  in
  let mc, sc = sample `Cut in
  let mt, st = sample `Tick in
  check bool "dynamic star means agree" true
    (abs_float (mc -. mt) < 5. *. sqrt ((sc *. sc) +. (st *. st)))

let test_clique_spread_logarithmic () =
  let rng = Rng.create 7 in
  let mean n =
    let net = Dynet.of_static (Gen.clique n) in
    let xs =
      Array.init 60 (fun _ ->
          (Async_cut.run (Rng.split rng) net ~source:0).Async_result.time)
    in
    Descriptive.mean xs
  in
  let m64 = mean 64 and m512 = mean 512 in
  (* Theta(log n): ratio ~ log 512 / log 64 = 1.5, far from the x8 of
     linear growth. *)
  check bool "sublinear growth" true (m512 /. m64 < 2.5);
  check bool "still grows" true (m512 > m64 *. 0.9)


let test_engines_agree_ks () =
  (* Full-distribution agreement (not just means): two-sample KS on a
     static expander and on the adaptive star. *)
  let rng = Rng.create 99 in
  List.iter
    (fun (label, net) ->
      let reps = 500 in
      let sample engine =
        Array.init reps (fun _ ->
            let child = Rng.split rng in
            match engine with
            | `Cut -> (Async_cut.run child net ~source:0).Async_result.time
            | `Tick -> (Async_tick.run child net ~source:0).Async_result.time)
      in
      let r = Ks.two_sample (sample `Cut) (sample `Tick) in
      (* 0.1% level: the test must not flag identical distributions. *)
      check bool
        (label ^ ": KS below critical value")
        true
        (r.Ks.statistic < Ks.critical_value ~n1:reps ~n2:reps ~alpha:0.001))
    [
      ("K12", Dynet.of_static (Gen.clique 12));
      ("G2-12", Dichotomy.g2 ~n:12);
    ]


let test_informed_times_consistent () =
  let net = Dynet.of_static (Gen.clique 24) in
  let r = Async_cut.run ~record_trace:true (Rng.create 55) net ~source:3 in
  let times = r.Async_result.informed_times in
  check (Alcotest.float 1e-12) "source at 0" 0. times.(3);
  Array.iter (fun t -> check bool "finite when complete" true (Float.is_finite t)) times;
  let latest = Array.fold_left Float.max 0. times in
  check (Alcotest.float 1e-9) "latest = spread time" r.Async_result.time latest;
  (* Counting times <= each trace point reproduces the trajectory. *)
  Array.iter
    (fun (t, c) ->
      let count =
        Array.fold_left (fun acc x -> if x <= t +. 1e-12 then acc + 1 else acc) 0 times
      in
      check int "trace consistent with per-node times" c count)
    r.Async_result.trace

let test_informed_times_incomplete_nan () =
  let g = Fixtures.of_edges 4 [ (0, 1) ] in
  let net = Dynet.of_static g in
  let r = Async_cut.run ~horizon:20. (Rng.create 56) net ~source:0 in
  check bool "unreachable nodes are nan" true
    (Float.is_nan r.Async_result.informed_times.(3));
  check bool "reached node finite" true
    (Float.is_finite r.Async_result.informed_times.(1))

let test_informed_times_tick_engine () =
  let net = Dynet.of_static (Gen.star 10) in
  let r = Async_tick.run (Rng.create 57) net ~source:0 in
  Array.iter
    (fun t -> check bool "tick engine records times" true (Float.is_finite t))
    r.Async_result.informed_times


(* --- stepping interface --- *)

let test_stepping_event_stream () =
  let n = 16 in
  let net = Dynet.of_static (Gen.clique n) in
  let e = Async_cut.create (Rng.create 70) net ~source:0 in
  check int "starts with source informed" 1 (Async_cut.informed_count e);
  let informs = ref 0 and boundaries = ref 0 and last = ref 0. in
  let rec drive () =
    match Async_cut.next_event e with
    | Async_cut.Complete t ->
      check bool "complete at the last informing time" true (t = !last)
    | Async_cut.Informed (v, t) ->
      incr informs;
      check bool "node in range" true (v >= 0 && v < n);
      check bool "time monotone" true (t >= !last);
      last := t;
      drive ()
    | Async_cut.Step_boundary (step, _) ->
      incr boundaries;
      check bool "steps start at 1" true (step >= 1);
      drive ()
  in
  drive ();
  check int "n-1 informing events" (n - 1) !informs;
  check int "engine complete" n (Async_cut.informed_count e);
  (* Complete is sticky. *)
  (match Async_cut.next_event e with
  | Async_cut.Complete _ -> ()
  | _ -> Alcotest.fail "Complete must be sticky")

let test_stepping_matches_run () =
  (* Same seed: run and a manual stepping loop produce the identical
     spread time (run is built on the stepping interface). *)
  let net = Dichotomy.g2 ~n:24 in
  let r = Async_cut.run (Rng.create 71) net ~source:0 in
  let e = Async_cut.create (Rng.create 71) net ~source:0 in
  let rec drive () =
    match Async_cut.next_event e with
    | Async_cut.Complete t -> t
    | _ -> drive ()
  in
  check (Alcotest.float 1e-12) "identical spread time" r.Async_result.time
    (drive ())

let test_stepping_early_stop () =
  (* Custom stopping rule: halt at half coverage. *)
  let n = 64 in
  let net = Dynet.of_static (Gen.clique n) in
  let e = Async_cut.create (Rng.create 72) net ~source:0 in
  let rec drive () =
    if Async_cut.informed_count e >= n / 2 then ()
    else
      match Async_cut.next_event e with
      | Async_cut.Complete _ -> Alcotest.fail "should stop at half"
      | _ -> drive ()
  in
  drive ();
  check int "stopped at half" (n / 2) (Async_cut.informed_count e);
  check bool "not complete" true (Async_cut.informed_count e < n)

(* --- 2-push coupling (Lemma 4.2's tooling) --- *)

let test_push_rate2_on_regular_equivalent () =
  (* On a regular graph, push-pull at rate 1 and the 2-push (push-only
     at rate 2) pick each edge direction at the same total rate; their
     spread-time means agree. *)
  let rng = Rng.create 8 in
  let g = Gen.circulant 24 [ 1; 2 ] in
  let net = Dynet.of_static g in
  let reps = 400 in
  let sample f = Array.init reps (fun _ -> f (Rng.split rng)) in
  let pp =
    sample (fun c -> (Async_tick.run c net ~source:0).Async_result.time)
  in
  let push2 =
    sample (fun c ->
        (Async_tick.run ~protocol:Protocol.Push ~rate:2.0 c net ~source:0)
          .Async_result.time)
  in
  let mpp = Descriptive.mean pp and m2 = Descriptive.mean push2 in
  let tol =
    5. *. sqrt ((Descriptive.std_error pp ** 2.) +. (Descriptive.std_error push2 ** 2.))
  in
  check bool "2-push equivalent on regular graphs" true (abs_float (mpp -. m2) < tol)

(* --- Sync --- *)

let test_sync_star_from_center () =
  (* Centre source: every leaf pulls in round 0 -> exactly 1 round. *)
  let net = Dynet.of_static (Gen.star 10) in
  let r = Sync.run (Rng.create 9) net ~source:0 in
  check int "one round" 1 r.Sync.rounds;
  check bool "complete" true r.Sync.complete

let test_sync_snapshot_semantics () =
  (* Path 0-1-2, source 0.  Round 1 cannot inform node 2 via a relay
     through node 1 in the same round: node 1 learns in round 0 only if
     contacted, and node 2 can only learn from node 1's round-start
     state.  So spread needs >= 2 rounds. *)
  let net = Dynet.of_static (Gen.path 3) in
  for seed = 0 to 20 do
    let r = Sync.run (Rng.create seed) net ~source:0 in
    check bool "at least 2 rounds" true (r.Sync.rounds >= 2)
  done

let test_sync_max_rounds () =
  let g = Fixtures.of_edges 3 [ (0, 1) ] in
  let net = Dynet.of_static g in
  let r = Sync.run ~max_rounds:7 (Rng.create 10) net ~source:0 in
  check bool "incomplete" false r.Sync.complete;
  check int "stopped at max" 7 r.Sync.rounds

let test_sync_trace () =
  let net = Dynet.of_static (Gen.clique 16) in
  let r = Sync.run (Rng.create 11) net ~source:0 in
  let trace = r.Sync.trace in
  check int "trace rounds+1 entries" (r.Sync.rounds + 1) (Array.length trace);
  check int "starts at 1" 1 trace.(0);
  check int "ends full" 16 trace.(Array.length trace - 1);
  for i = 1 to Array.length trace - 1 do
    check bool "monotone" true (trace.(i) >= trace.(i - 1))
  done


let test_sync_pull_star_from_center () =
  (* Pull-only, centre source: every leaf pulls the rumor in round 0. *)
  let net = Dynet.of_static (Gen.star 12) in
  let r = Sync.run ~protocol:Protocol.Pull (Rng.create 80) net ~source:0 in
  check int "one round" 1 r.Sync.rounds

let test_sync_push_star_coupon_collector () =
  (* Push-only, centre source: leaves' pushes do nothing (they have no
     rumor) and the centre informs one uniformly random leaf per round —
     a coupon collector, ~ n H_n rounds. *)
  let n = 16 in
  let net = Dynet.of_static (Gen.star (n + 1)) in
  let rng = Rng.create 81 in
  let reps = 60 in
  let total = ref 0. in
  for _ = 1 to reps do
    let r = Sync.run ~protocol:Protocol.Push (Rng.split rng) net ~source:0 in
    check bool "complete" true r.Sync.complete;
    total := !total +. float_of_int r.Sync.rounds
  done;
  let mean = !total /. float_of_int reps in
  let harmonic =
    Array.fold_left ( +. ) 0. (Array.init n (fun i -> 1. /. float_of_int (i + 1)))
  in
  let expected = float_of_int n *. harmonic in
  check bool "coupon collector scale" true
    (abs_float (mean -. expected) < 0.3 *. expected)

let test_sync_push_leaf_source_two_phases () =
  (* Push-only from a leaf: round 0 must push leaf -> centre (the
     leaf's only neighbour), so at least 2 rounds always. *)
  let net = Dynet.of_static (Gen.star 6) in
  for seed = 0 to 10 do
    let r = Sync.run ~protocol:Protocol.Push (Rng.create seed) net ~source:3 in
    check bool "at least 2 rounds" true (r.Sync.rounds >= 2)
  done

(* --- Flooding --- *)

let test_flooding_is_eccentricity () =
  List.iter
    (fun (g, src) ->
      let net = Dynet.of_static g in
      let r = Flooding.run (Rng.create 12) net ~source:src in
      check int "rounds = eccentricity" (Oracle.eccentricity g src) r.Flooding.rounds)
    [ (Gen.path 9, 0); (Gen.path 9, 4); (Gen.cycle 10, 3); (Gen.clique 7, 0) ]

let test_flooding_disconnected () =
  let g = Fixtures.of_edges 4 [ (0, 1) ] in
  let net = Dynet.of_static g in
  let r = Flooding.run ~max_rounds:5 (Rng.create 13) net ~source:0 in
  check bool "incomplete" false r.Flooding.complete

(* --- Run driver --- *)

let test_run_source_resolution () =
  let hinted = Dichotomy.g1 ~n:6 in
  check int "explicit wins" 3 (Run.source_of hinted (Some 3));
  check int "hint next" 6 (Run.source_of hinted None);
  let unhinted = Dynet.of_static (Gen.cycle 5) in
  check int "default 0" 0 (Run.source_of unhinted None)

let test_run_monte_carlo () =
  let net = Dynet.of_static (Gen.clique 12) in
  let mc = Run.async_spread_times ~reps:25 (Rng.create 14) net in
  check int "reps" 25 mc.Run.reps;
  check int "all completed" 25 mc.Run.completed;
  check int "sample count" 25 (Array.length mc.Run.times);
  Array.iter (fun t -> check bool "positive times" true (t > 0.)) mc.Run.times

let test_run_reps_prefix_stable () =
  (* Same parent seed: the first k samples are identical regardless of
     total reps (split-per-rep contract). *)
  let net = Dynet.of_static (Gen.clique 10) in
  let a = Run.async_spread_times ~reps:5 (Rng.create 15) net in
  let b = Run.async_spread_times ~reps:10 (Rng.create 15) net in
  for i = 0 to 4 do
    check (Alcotest.float 1e-12) "prefix stable" a.Run.times.(i) b.Run.times.(i)
  done

let () =
  Alcotest.run "sim"
    [
      ("protocol", [ Alcotest.test_case "apply" `Quick test_protocol_apply ]);
      ( "async engines",
        [
          Alcotest.test_case "cut: K2 mean 0.5" `Quick test_cut_single_edge_mean;
          Alcotest.test_case "tick: K2 mean 0.5" `Quick test_tick_single_edge_mean;
          Alcotest.test_case "completion and trace" `Quick
            test_async_completes_and_monotone;
          Alcotest.test_case "source validation" `Quick test_async_source_validation;
          Alcotest.test_case "horizon on disconnected" `Quick
            test_async_horizon_incomplete;
          Alcotest.test_case "engines agree (static zoo)" `Slow
            test_engines_agree_in_distribution;
          Alcotest.test_case "engines agree (dynamic star)" `Slow
            test_engines_agree_on_dynamic;
          Alcotest.test_case "engines agree (KS distribution test)" `Slow
            test_engines_agree_ks;
          Alcotest.test_case "per-node informed times" `Quick
            test_informed_times_consistent;
          Alcotest.test_case "informed times nan when unreachable" `Quick
            test_informed_times_incomplete_nan;
          Alcotest.test_case "informed times (tick)" `Quick
            test_informed_times_tick_engine;
          Alcotest.test_case "stepping event stream" `Quick
            test_stepping_event_stream;
          Alcotest.test_case "stepping matches run" `Quick
            test_stepping_matches_run;
          Alcotest.test_case "stepping early stop" `Quick test_stepping_early_stop;
          Alcotest.test_case "clique spread logarithmic" `Quick
            test_clique_spread_logarithmic;
          Alcotest.test_case "2-push coupling on regular" `Slow
            test_push_rate2_on_regular_equivalent;
        ] );
      ( "sync",
        [
          Alcotest.test_case "star from centre" `Quick test_sync_star_from_center;
          Alcotest.test_case "snapshot semantics" `Quick test_sync_snapshot_semantics;
          Alcotest.test_case "max rounds" `Quick test_sync_max_rounds;
          Alcotest.test_case "trace" `Quick test_sync_trace;
          Alcotest.test_case "pull star from centre" `Quick
            test_sync_pull_star_from_center;
          Alcotest.test_case "push star coupon collector" `Slow
            test_sync_push_star_coupon_collector;
          Alcotest.test_case "push from leaf two phases" `Quick
            test_sync_push_leaf_source_two_phases;
        ] );
      ( "flooding",
        [
          Alcotest.test_case "rounds = eccentricity" `Quick
            test_flooding_is_eccentricity;
          Alcotest.test_case "disconnected" `Quick test_flooding_disconnected;
        ] );
      ( "run",
        [
          Alcotest.test_case "source resolution" `Quick test_run_source_resolution;
          Alcotest.test_case "monte carlo" `Quick test_run_monte_carlo;
          Alcotest.test_case "prefix stability" `Quick test_run_reps_prefix_stable;
        ] );
    ]
