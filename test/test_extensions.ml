(* Tests for the extension surface: new generators (small-world,
   preferential attachment), dynamic-network combinators, trace
   analysis, and the protocol-generalized cut engine. *)

open Rumor_core.Rumor

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let empty_informed n = Bitset.create n

(* --- new generators --- *)

let test_wheel () =
  let g = Fixtures.wheel 8 in
  check int "hub degree" 7 (Graph.degree g 0);
  for u = 1 to 7 do
    check int "rim degree" 3 (Graph.degree g u)
  done;
  check int "m" 14 (Graph.m g);
  check bool "connected" true (Traverse.is_connected g)

let test_watts_strogatz_structure () =
  let rng = Rng.create 1 in
  (* beta = 0: the pure ring lattice, 2k-regular. *)
  let lattice = Gen.watts_strogatz rng 40 3 0. in
  check bool "beta 0 regular" true
    (Graph.min_degree lattice = 6 && Graph.max_degree lattice = 6);
  check bool "lattice equals circulant" true
    (Graph.equal lattice (Gen.circulant 40 [ 1; 2; 3 ]));
  (* beta = 1: fully rewired, edge count preserved. *)
  let rewired = Gen.watts_strogatz rng 40 3 1. in
  check int "edge count preserved" (40 * 3) (Graph.m rewired);
  check bool "no longer the lattice" false (Graph.equal rewired lattice)

let test_watts_strogatz_small_world () =
  (* Moderate rewiring shrinks the diameter well below the lattice's. *)
  let rng = Rng.create 2 in
  let lattice = Gen.watts_strogatz rng 100 2 0. in
  let small = Gen.watts_strogatz rng 100 2 0.3 in
  if Traverse.is_connected small then
    check bool "diameter shrinks" true
      (Oracle.diameter small < Oracle.diameter lattice)

let test_watts_strogatz_rejects () =
  let rng = Rng.create 3 in
  Alcotest.check_raises "k too large"
    (Invalid_argument "Gen.watts_strogatz: need 1 <= k <= (n-1)/2") (fun () ->
      ignore (Gen.watts_strogatz rng 10 5 0.1))

let test_barabasi_albert () =
  let rng = Rng.create 4 in
  let n = 200 and m = 3 in
  let g = Gen.barabasi_albert rng n m in
  check int "n" n (Graph.n g);
  (* Edge count: seed clique + m per arrival. *)
  check int "m edges" ((m * (m + 1) / 2) + (m * (n - m - 1))) (Graph.m g);
  check bool "connected" true (Traverse.is_connected g);
  check bool "min degree >= m" true (Graph.min_degree g >= m);
  (* Heavy tail: the maximum degree should far exceed the mean. *)
  check bool "hub emerges" true
    (float_of_int (Graph.max_degree g) > 3. *. float_of_int (Graph.volume g) /. float_of_int n)

let test_barabasi_albert_rejects () =
  let rng = Rng.create 5 in
  Alcotest.check_raises "m >= n"
    (Invalid_argument "Gen.barabasi_albert: need 1 <= m < n") (fun () ->
      ignore (Gen.barabasi_albert rng 3 3))

let test_intermittent_exposure () =
  let base = Dynet.of_static ~name:"cycle" (Gen.cycle 10) in
  let net = Combinators.intermittent ~every:3 base in
  let inst = net.Dynet.spawn (Rng.create 7) in
  let informed = empty_informed 10 in
  let g0 = (Dynet.next inst ~informed).Dynet.graph in
  let g1 = (Dynet.next inst ~informed).Dynet.graph in
  let g2 = (Dynet.next inst ~informed).Dynet.graph in
  let g3 = (Dynet.next inst ~informed).Dynet.graph in
  check int "step 0 exposed" 10 (Graph.m g0);
  check int "step 1 blank" 0 (Graph.m g1);
  check int "step 2 blank" 0 (Graph.m g2);
  check int "step 3 exposed" 10 (Graph.m g3)

let test_intermittent_spread_scaling () =
  let base = Dynet.of_static ~name:"clique" (Gen.clique 64) in
  let rng = Rng.create 8 in
  let mean net =
    let mc = Run.async_spread_times ~reps:30 rng net in
    Descriptive.mean mc.Run.times
  in
  let m1 = mean base in
  let m4 = mean (Combinators.intermittent ~every:4 base) in
  check bool "roughly 4x slower" true (m4 > 2.2 *. m1 && m4 < 7. *. m1)

let test_dropout_degrades_gracefully () =
  let base = Dynet.of_static (Gen.clique 32) in
  let none = Combinators.with_edge_dropout ~p:0. base in
  let inst = none.Dynet.spawn (Rng.create 9) in
  let g = (Dynet.next inst ~informed:(empty_informed 32)).Dynet.graph in
  check int "p = 0 keeps all edges" (32 * 31 / 2) (Graph.m g);
  let all = Combinators.with_edge_dropout ~p:1. base in
  let inst2 = all.Dynet.spawn (Rng.create 9) in
  let g2 = (Dynet.next inst2 ~informed:(empty_informed 32)).Dynet.graph in
  check int "p = 1 drops all edges" 0 (Graph.m g2);
  (* Statistical middle ground. *)
  let half = Combinators.with_edge_dropout ~p:0.5 base in
  let inst3 = half.Dynet.spawn (Rng.create 10) in
  let g3 = (Dynet.next inst3 ~informed:(empty_informed 32)).Dynet.graph in
  let expected = float_of_int (32 * 31 / 2) *. 0.5 in
  check bool "p = 0.5 near half" true
    (abs_float (float_of_int (Graph.m g3) -. expected) < 5. *. sqrt expected)

let test_dropout_spread_still_completes () =
  let base = Dynet.of_static (Gen.clique 48) in
  let net = Combinators.with_edge_dropout ~p:0.7 base in
  let r = Async_cut.run ~horizon:1e4 (Rng.create 11) net ~source:0 in
  check bool "completes under dropout" true r.Async_result.complete

let test_random_geometric () =
  let rng = Rng.create 6 in
  let g0 = Fixtures.random_geometric_torus rng 50 0. in
  check int "radius 0 -> empty" 0 (Graph.m g0);
  let gfull = Fixtures.random_geometric_torus rng 20 1.0 in
  check int "radius >= diag -> complete" (20 * 19 / 2) (Graph.m gfull);
  (* Monotone in radius (same points impossible across calls, so test
     expected density ordering statistically). *)
  let dense = Fixtures.random_geometric_torus rng 100 0.2 in
  let sparse = Fixtures.random_geometric_torus rng 100 0.05 in
  check bool "denser with bigger radius" true (Graph.m dense > Graph.m sparse)

let test_interleave () =
  let a = Dynet.of_static ~name:"cycle" (Gen.cycle 8) in
  let b = Dynet.of_static ~name:"clique" (Gen.clique 8) in
  let net = Fixtures.interleave [ a; b ] in
  let inst = net.Dynet.spawn (Rng.create 12) in
  let informed = empty_informed 8 in
  check int "step 0 from a" 8 (Graph.m (Dynet.next inst ~informed).Dynet.graph);
  check int "step 1 from b" 28 (Graph.m (Dynet.next inst ~informed).Dynet.graph);
  check int "step 2 from a" 8 (Graph.m (Dynet.next inst ~informed).Dynet.graph);
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Fixtures.interleave: node-count mismatch") (fun () ->
      ignore (Fixtures.interleave [ a; Dynet.of_static (Gen.cycle 9) ]))

let test_map_graph () =
  let base = Dynet.of_static (Gen.cycle 8) in
  (* Surgery: add a chord at each step. *)
  let net =
    Fixtures.map_graph
      (fun ~step:_ g ->
        let b = Builder.create (Graph.n g) in
        Graph.iter_edges (fun u v -> Builder.add_edge_exn b u v) g;
        ignore (Builder.add_edge b 0 4);
        Builder.freeze b)
      base
  in
  let inst = net.Dynet.spawn (Rng.create 13) in
  let g = (Dynet.next inst ~informed:(empty_informed 8)).Dynet.graph in
  check int "chord added" 9 (Graph.m g);
  check bool "chord present" true (Graph.has_edge g 0 4)

let test_node_outage_statistics () =
  let base = Dynet.of_static (Gen.clique 40) in
  let none = Fixtures.with_node_outage ~p:0. base in
  let inst = none.Dynet.spawn (Rng.create 50) in
  let g = (Dynet.next inst ~informed:(empty_informed 40)).Dynet.graph in
  check int "p = 0 keeps all edges" (40 * 39 / 2) (Graph.m g);
  let all = Fixtures.with_node_outage ~p:1. base in
  let inst2 = all.Dynet.spawn (Rng.create 50) in
  let g2 = (Dynet.next inst2 ~informed:(empty_informed 40)).Dynet.graph in
  check int "p = 1 drops everything" 0 (Graph.m g2);
  (* p = 0.5: surviving edges need both endpoints online: ~1/4. *)
  let half = Fixtures.with_node_outage ~p:0.5 base in
  let inst3 = half.Dynet.spawn (Rng.create 51) in
  let m3 = Graph.m (Dynet.next inst3 ~informed:(empty_informed 40)).Dynet.graph in
  let expected = float_of_int (40 * 39 / 2) /. 4. in
  check bool "p = 0.5 ~ quarter of edges" true
    (abs_float (float_of_int m3 -. expected) < 6. *. sqrt expected)

let test_node_outage_spread_completes () =
  (* Even heavy churn only delays the spread (offline nodes keep the
     rumor). *)
  let base = Dynet.of_static (Gen.clique 48) in
  let net = Fixtures.with_node_outage ~p:0.6 base in
  let r = Async_cut.run ~horizon:1e4 (Rng.create 52) net ~source:0 in
  check bool "completes under outages" true r.Async_result.complete

(* --- trace analysis --- *)

let run_traced n =
  let net = Dynet.of_static (Gen.clique n) in
  let r = Async_cut.run ~record_trace:true (Rng.create 14) net ~source:0 in
  r.Async_result.trace

let test_trace_validate () =
  let tr = run_traced 32 in
  Oracle.validate_trace tr ~n:32;
  Alcotest.check_raises "empty"
    (Invalid_argument "Oracle.validate_trace: empty trajectory")
    (fun () -> Oracle.validate_trace [||] ~n:5);
  Alcotest.check_raises "non-monotone"
    (Invalid_argument "Oracle.validate_trace: count not increasing") (fun () ->
      Oracle.validate_trace [| (0., 1); (1., 1) |] ~n:5)

let test_trace_time_to () =
  let tr = [| (0., 1); (1.5, 2); (2.0, 3); (4.0, 4) |] in
  check (Alcotest.option (Alcotest.float 1e-9)) "count 3" (Some 2.0)
    (Trace.time_to_fraction tr ~n:4 0.75);
  check (Alcotest.option (Alcotest.float 1e-9)) "count 5 missing" None
    (Trace.time_to_fraction tr ~n:5 1.0);
  check (Alcotest.option (Alcotest.float 1e-9)) "fraction 1.0" (Some 4.0)
    (Trace.time_to_fraction tr ~n:4 1.0);
  check (Alcotest.option (Alcotest.float 1e-9)) "fraction 0.5" (Some 1.5)
    (Trace.time_to_fraction tr ~n:4 0.5);
  Alcotest.check_raises "bad fraction"
    (Invalid_argument "Trace.time_to_fraction: frac outside (0, 1]") (fun () ->
      ignore (Trace.time_to_fraction tr ~n:4 0.))

let test_trace_phases_bounded () =
  (* Lemma 3.1 structure: O(log n) phases on complete runs. *)
  List.iter
    (fun n ->
      let tr = run_traced n in
      let phases = Trace.doubling_phases tr ~n in
      check bool
        (Printf.sprintf "phase count bounded at n = %d" n)
        true
        (List.length phases <= Trace.phase_count_bound ~n);
      check bool "phases positive" true (List.for_all (fun d -> d >= 0.) phases))
    [ 16; 64; 256 ]

let test_trace_phases_grow_logarithmically () =
  let count n = List.length (Trace.doubling_phases (run_traced n) ~n) in
  let c16 = count 16 and c256 = count 256 in
  (* 16x nodes adds only ~ log-many phases. *)
  check bool "log growth" true (c256 - c16 <= 12 && c256 > c16)

(* --- protocol-generalized cut engine --- *)

let test_cut_protocols_on_k2 () =
  (* On K2: push-pull rate 2, push rate 1, pull rate 1 -> means 0.5 /
     1.0 / 1.0. *)
  let net = Dynet.of_static (Gen.clique 2) in
  let rng = Rng.create 15 in
  let mean protocol =
    let xs =
      Array.init 3000 (fun _ ->
          (Async_cut.run ~protocol (Rng.split rng) net ~source:0)
            .Async_result.time)
    in
    Descriptive.mean xs
  in
  check bool "push-pull ~ 0.5" true (abs_float (mean Protocol.Push_pull -. 0.5) < 0.04);
  check bool "push ~ 1.0" true (abs_float (mean Protocol.Push -. 1.0) < 0.07);
  check bool "pull ~ 1.0" true (abs_float (mean Protocol.Pull -. 1.0) < 0.07)

let test_cut_rate_scaling () =
  (* Doubling every clock halves the spread time exactly in
     distribution. *)
  let net = Dynet.of_static (Gen.clique 16) in
  let rng = Rng.create 16 in
  let mean rate =
    let xs =
      Array.init 1500 (fun _ ->
          (Async_cut.run ~rate (Rng.split rng) net ~source:0).Async_result.time)
    in
    Descriptive.mean xs
  in
  let m1 = mean 1.0 and m2 = mean 2.0 in
  check bool "rate 2 halves time" true (abs_float ((m1 /. m2) -. 2.) < 0.25)

let test_cut_push_agrees_with_tick_push () =
  let net = Dynet.of_static (Gen.star 10) in
  let rng = Rng.create 17 in
  let sample engine =
    let xs =
      Array.init 500 (fun _ ->
          let child = Rng.split rng in
          match engine with
          | `Cut ->
            (Async_cut.run ~protocol:Protocol.Push child net ~source:0)
              .Async_result.time
          | `Tick ->
            (Async_tick.run ~protocol:Protocol.Push child net ~source:0)
              .Async_result.time)
    in
    (Descriptive.mean xs, Descriptive.std_error xs)
  in
  let mc, sc = sample `Cut and mt, st = sample `Tick in
  check bool "push engines agree on star" true
    (abs_float (mc -. mt) < 5. *. sqrt ((sc *. sc) +. (st *. st)))


(* --- export --- *)

let test_dot_output () =
  let g = Gen.path 3 in
  let informed = Fixtures.bitset 3 [ 0 ] in
  let dot = Export.to_dot ~name:"P3" ~highlight:informed g in
  check bool "has graph header" true
    (String.length dot > 10 && String.sub dot 0 8 = "graph P3");
  check bool "edge present" true
    (let re = "n0 -- n1" in
     let rec find i =
       i + String.length re <= String.length dot
       && (String.sub dot i (String.length re) = re || find (i + 1))
     in
     find 0);
  check bool "highlight styled" true
    (let re = "fillcolor" in
     let rec find i =
       i + String.length re <= String.length dot
       && (String.sub dot i (String.length re) = re || find (i + 1))
     in
     find 0);
  Alcotest.check_raises "capacity mismatch"
    (Invalid_argument "Export.to_dot: highlight capacity mismatch") (fun () ->
      ignore (Export.to_dot ~highlight:(Bitset.create 5) g))

let test_csv_output () =
  let csv =
    Export.csv_of_rows ~header:[ "a"; "b" ]
      [ [ "1"; "plain" ]; [ "2"; "with,comma" ]; [ "3"; "with\"quote" ] ]
  in
  let lines = String.split_on_char '\n' csv in
  check Alcotest.string "header" "a,b" (List.nth lines 0);
  check Alcotest.string "plain" "1,plain" (List.nth lines 1);
  check Alcotest.string "comma quoted" "2,\"with,comma\"" (List.nth lines 2);
  check Alcotest.string "quote doubled" "3,\"with\"\"quote\"" (List.nth lines 3);
  Alcotest.check_raises "arity"
    (Invalid_argument "Export.csv_of_rows: row arity mismatch") (fun () ->
      ignore (Export.csv_of_rows ~header:[ "a" ] [ [ "1"; "2" ] ]))

(* --- Lemma 4.2 coupling --- *)

let mk_clusters k delta =
  Array.init (k + 1) (fun ci -> Array.init delta (fun ii -> (ci * delta) + ii))

let test_coupling_outcomes_consistent () =
  let clusters = mk_clusters 4 3 in
  let rng = Rng.create 20 in
  for _ = 1 to 50 do
    let o = Coupling.two_push (Rng.split rng) ~clusters ~horizon:1.0 in
    check bool "last <= total" true
      (o.Coupling.informed_last <= o.Coupling.informed_total);
    check bool "S0 stays informed" true (o.Coupling.informed_total >= 3);
    check bool "reached consistent" true
      (o.Coupling.reached_last = (o.Coupling.informed_last > 0))
  done

let test_coupling_inequality () =
  (* Claim 4.3: Pr[2-push reaches S_k] <= Pr[forward reaches S_k]. *)
  let clusters = mk_clusters 3 4 in
  let rng = Rng.create 21 in
  let reps = 2000 in
  let p f =
    let hits = ref 0 in
    for _ = 1 to reps do
      if (f (Rng.split rng) ~clusters ~horizon:1.0).Coupling.reached_last then
        incr hits
    done;
    float_of_int !hits /. float_of_int reps
  in
  let p2 = p Coupling.two_push in
  let pf = p Coupling.forward_two_push in
  check bool "coupling direction" true (p2 <= pf +. (4. /. sqrt (float_of_int reps)))

let test_factorial_bound_holds () =
  let k = 5 and delta = 3 in
  let clusters = mk_clusters k delta in
  let rng = Rng.create 22 in
  let reps = 2000 in
  let sum = ref 0 in
  for _ = 1 to reps do
    sum :=
      !sum
      + (Coupling.forward_two_push (Rng.split rng) ~clusters ~horizon:1.0)
          .Coupling.informed_last
  done;
  let mean = float_of_int !sum /. float_of_int reps in
  check bool "E[I(1,k)] <= (2^k/k!) Delta" true
    (mean <= Coupling.factorial_bound ~k ~delta +. 0.05);
  check (Alcotest.float 1e-9) "bound value" (32. /. 120. *. 3.)
    (Coupling.factorial_bound ~k ~delta)

let test_coupling_validation () =
  let rng = Rng.create 23 in
  Alcotest.check_raises "one cluster"
    (Invalid_argument "Coupling: need at least 2 clusters") (fun () ->
      ignore (Coupling.two_push rng ~clusters:(mk_clusters 0 3) ~horizon:1.0));
  Alcotest.check_raises "ragged" (Invalid_argument "Coupling: ragged cluster sizes")
    (fun () ->
      ignore
        (Coupling.two_push rng ~clusters:[| [| 0; 1 |]; [| 2 |] |] ~horizon:1.0))


(* --- estimate --- *)

let test_estimate_whp_quantile () =
  (* The default quantile: 1 - 1/n, clamped to 0.999, 0.5 below two
     nodes. *)
  let q net = (Estimate.spread_time ~reps:2 (Rng.create 9) net).Estimate.q in
  check (Alcotest.float 1e-9) "n = 100" 0.99 (q (Dynet.of_static (Gen.clique 100)));
  check (Alcotest.float 1e-9) "clamped" 0.999 (q (Dynet.of_static (Gen.star 2000)));
  check (Alcotest.float 1e-9) "tiny n" 0.5 (q (Dynet.of_static (Gen.empty 1)))

let test_estimate_spread_time () =
  let net = Dynet.of_static (Gen.clique 64) in
  let e = Estimate.spread_time ~reps:100 (Rng.create 30) net in
  check bool "CI brackets point" true
    (e.Estimate.ci_low <= e.Estimate.point && e.Estimate.point <= e.Estimate.ci_high);
  check int "all complete" 100 e.Estimate.completed;
  check bool "point above median" true
    (e.Estimate.point >= Quantile.quantile e.Estimate.samples 0.5);
  check bool "plausible scale" true
    (e.Estimate.point > 2. && e.Estimate.point < 30.)


(* --- parallel runner --- *)

let test_parallel_matches_sequential () =
  let net = Dynet.of_static (Gen.clique 32) in
  let seq = Run.async_spread_times ~jobs:1 ~reps:16 (Rng.create 40) net in
  let par = Run.async_spread_times ~jobs:3 ~reps:16 (Rng.create 40) net in
  check int "completed equal" seq.Run.completed par.Run.completed;
  for i = 0 to 15 do
    check (Alcotest.float 1e-12) "identical samples" seq.Run.times.(i)
      par.Run.times.(i)
  done

let test_parallel_single_domain () =
  let net = Dynet.of_static (Gen.cycle 12) in
  let a = Run.async_spread_times ~jobs:1 ~reps:5 (Rng.create 41) net in
  check int "reps" 5 a.Run.reps;
  check int "all complete" 5 a.Run.completed

let test_parallel_adaptive_family () =
  (* Adaptive families spawn per-rep instances: safe across domains. *)
  let net = Dichotomy.g2 ~n:24 in
  let seq = Run.async_spread_times ~jobs:1 ~reps:8 (Rng.create 42) net in
  let par = Run.async_spread_times ~jobs:4 ~reps:8 (Rng.create 42) net in
  for i = 0 to 7 do
    check (Alcotest.float 1e-12) "identical on adaptive" seq.Run.times.(i)
      par.Run.times.(i)
  done

let () =
  Alcotest.run "extensions"
    [
      ( "generators",
        [
          Alcotest.test_case "wheel" `Quick test_wheel;
          Alcotest.test_case "watts-strogatz structure" `Quick
            test_watts_strogatz_structure;
          Alcotest.test_case "watts-strogatz small world" `Quick
            test_watts_strogatz_small_world;
          Alcotest.test_case "watts-strogatz rejects" `Quick
            test_watts_strogatz_rejects;
          Alcotest.test_case "barabasi-albert" `Quick test_barabasi_albert;
          Alcotest.test_case "barabasi-albert rejects" `Quick
            test_barabasi_albert_rejects;
          Alcotest.test_case "random geometric" `Quick test_random_geometric;
        ] );
      ( "combinators",
        [
          Alcotest.test_case "intermittent exposure" `Quick test_intermittent_exposure;
          Alcotest.test_case "intermittent spread scaling" `Slow
            test_intermittent_spread_scaling;
          Alcotest.test_case "dropout edge statistics" `Quick
            test_dropout_degrades_gracefully;
          Alcotest.test_case "dropout still completes" `Quick
            test_dropout_spread_still_completes;
          Alcotest.test_case "interleave" `Quick test_interleave;
          Alcotest.test_case "map_graph" `Quick test_map_graph;
          Alcotest.test_case "node outage statistics" `Quick
            test_node_outage_statistics;
          Alcotest.test_case "node outage completes" `Quick
            test_node_outage_spread_completes;
        ] );
      ( "trace",
        [
          Alcotest.test_case "validate" `Quick test_trace_validate;
          Alcotest.test_case "time_to" `Quick test_trace_time_to;
          Alcotest.test_case "phases bounded" `Quick test_trace_phases_bounded;
          Alcotest.test_case "phases grow logarithmically" `Quick
            test_trace_phases_grow_logarithmically;
        ] );
      ( "cut engine protocols",
        [
          Alcotest.test_case "K2 rates" `Slow test_cut_protocols_on_k2;
          Alcotest.test_case "rate scaling" `Slow test_cut_rate_scaling;
          Alcotest.test_case "push agrees with tick" `Slow
            test_cut_push_agrees_with_tick_push;
        ] );
          ( "export",
        [
          Alcotest.test_case "dot" `Quick test_dot_output;
          Alcotest.test_case "csv" `Quick test_csv_output;
        ] );
      ( "coupling",
        [
          Alcotest.test_case "outcomes consistent" `Quick
            test_coupling_outcomes_consistent;
          Alcotest.test_case "claim 4.3 inequality" `Slow test_coupling_inequality;
          Alcotest.test_case "factorial bound" `Slow test_factorial_bound_holds;
          Alcotest.test_case "validation" `Quick test_coupling_validation;
        ] );
          ( "estimate",
        [
          Alcotest.test_case "whp quantile" `Quick test_estimate_whp_quantile;
          Alcotest.test_case "spread time CI" `Slow test_estimate_spread_time;
        ] );
          ( "parallel runner",
        [
          Alcotest.test_case "matches sequential" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "single domain" `Quick test_parallel_single_domain;
          Alcotest.test_case "adaptive family" `Quick test_parallel_adaptive_family;
        ] );
    ]
