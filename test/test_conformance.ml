(* Cross-engine statistical conformance suite.

   Async_cut and Async_tick implement the same continuous-time
   push-pull process by different mechanisms — cut-rate event
   sequencing with rejection vs explicit per-node exponential clocks —
   so their spread-time {e distributions} must agree on every topology.
   A two-sample Kolmogorov-Smirnov test at alpha = 0.001 compares
   fixed-seed samples on the star, the cycle and a connected G(n, p)
   at n in {64, 256}; a closed-form round-count check pins the
   synchronous engine to the classical complete-graph results.

   False-positive budget: six KS comparisons at alpha = 0.001 carry a
   union-bound false-positive probability of 0.6% for a {e fresh}
   seed.  The seeds below are fixed, so the suite is deterministic: it
   either passes forever, or a code change genuinely moved one of the
   distributions.  If reseeding ever trips a single comparison with no
   engine change, pick another seed and require two consecutive
   failures before blaming an engine. *)

open Rumor_core.Rumor

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* --- KS: cut-rate engine vs tick engine --- *)

let reps = 150

let ks_engines_agree ~name ~seed net =
  let sample engine s =
    (Run.async_spread_times ~reps ~engine (Rng.create s) net).Run.times
  in
  (* Independent seeds per engine: the test compares distributions,
     not coupled paths. *)
  let cut = sample Run.Cut seed in
  let tick = sample Run.Tick (seed + 1) in
  let r = Ks.two_sample cut tick in
  let crit = Ks.critical_value ~n1:reps ~n2:reps ~alpha:0.001 in
  check bool
    (Printf.sprintf "%s: KS D=%.3f below critical %.3f (p=%.4f)" name
       r.Ks.statistic crit r.Ks.p_value)
    true
    (r.Ks.statistic < crit)

(* Connected G(n, p) at the connectivity threshold's safe side,
   resampling the (seeded) generator until connected so the spread
   time is finite. *)
let connected_gnp n seed =
  let p = 3. *. log (float_of_int n) /. float_of_int n in
  let rec go s =
    let g = Gen.erdos_renyi (Rng.create s) n p in
    if Traverse.is_connected g then g else go (s + 1)
  in
  go seed

let test_ks_star () =
  ks_engines_agree ~name:"star-64" ~seed:101
    (Dynet.of_static (Gen.star 64));
  ks_engines_agree ~name:"star-256" ~seed:103
    (Dynet.of_static (Gen.star 256))

let test_ks_cycle () =
  ks_engines_agree ~name:"cycle-64" ~seed:105
    (Dynet.of_static (Gen.cycle 64));
  ks_engines_agree ~name:"cycle-256" ~seed:107
    (Dynet.of_static (Gen.cycle 256))

let test_ks_gnp () =
  ks_engines_agree ~name:"gnp-64" ~seed:109
    (Dynet.of_static (connected_gnp 64 1064));
  ks_engines_agree ~name:"gnp-256" ~seed:111
    (Dynet.of_static (connected_gnp 256 1256))

(* --- Panagiotou-Speidel limit law on dense G(n,p) --- *)

(* PS (PAPERS.md) prove that push-pull spread times on dense G(n,p)
   (np >> log n) converge to the complete-graph law, independently of
   p: the per-edge rate 1/deg cancels the edge count.  The reference
   distribution needs no graph simulation — Oracle.clique_sample
   draws the exact K_n pure-jump chain — so this gate pins the whole
   simulator (graph generation, cut maintenance, event sequencing)
   against a closed form none of its code paths share. *)

let ps_reps = 200

let ks_against_clique_law ~name ~seed ~sim_seed net n =
  let sim =
    (Run.async_spread_times ~reps:ps_reps (Rng.create sim_seed) net).Run.times
  in
  let reference = Oracle.clique_samples (Rng.create seed) ~n ~reps:ps_reps in
  let r = Ks.two_sample sim reference in
  let crit = Ks.critical_value ~n1:ps_reps ~n2:ps_reps ~alpha:0.001 in
  check bool
    (Printf.sprintf "%s: KS D=%.3f below critical %.3f (p=%.4f)" name
       r.Ks.statistic crit r.Ks.p_value)
    true
    (r.Ks.statistic < crit)

let test_ps_clique_law_exact () =
  (* Sanity at p = 1: the simulator on K_n itself must match the chain
     at any n — this is an identity, not an asymptotic. *)
  ks_against_clique_law ~name:"K_64 vs chain" ~seed:201 ~sim_seed:301
    (Dynet.of_static (Gen.clique 64))
    64;
  ks_against_clique_law ~name:"K_256 vs chain" ~seed:203 ~sim_seed:303
    (Dynet.of_static (Gen.clique 256))
    256

let test_ps_gnp_limit_law () =
  (* Dense G(n,p): p = 0.75 at n = 256 gives np = 192 >> ln n = 5.5,
     deep in the PS regime; finite-n error is well inside the KS
     critical band at 200 replicates. *)
  let n = 256 in
  let g =
    let rec go s =
      let g = Gen.erdos_renyi (Rng.create s) n 0.75 in
      if Traverse.is_connected g then g else go (s + 1)
    in
    go 2056
  in
  ks_against_clique_law ~name:"G(256,0.75) vs clique law" ~seed:205
    ~sim_seed:305 (Dynet.of_static g) n

let test_acan_universal_pins () =
  (* Acan-Collevecchio-Mehrabian-Wormald: any connected n-vertex graph
     spreads in Omega(log n) and O(n) whp.  The deliberately slack
     pins (ln n / 4, 4n) must bracket the mean on the extremes we can
     build: the clique (fastest) and the path (slowest). *)
  List.iter
    (fun (name, n, net) ->
      let mc = Run.async_spread_times ~reps:60 (Rng.create 401) net in
      let m = Descriptive.mean mc.Run.times in
      let lo = Oracle.worst_case_lower n in
      let hi = Oracle.worst_case_upper n in
      check bool
        (Printf.sprintf "%s: %.3f inside [%.3f, %.3f]" name m lo hi)
        true
        (m > lo && m < hi))
    [
      ("clique-64", 64, Dynet.of_static (Gen.clique 64));
      ("clique-256", 256, Dynet.of_static (Gen.clique 256));
      ("path-64", 64, Dynet.of_static (Gen.path 64));
      ("star-256", 256, Dynet.of_static (Gen.star 256));
    ]

(* --- Sync engine vs complete-graph closed forms --- *)

let test_sync_push_pittel () =
  (* Pittel '87: push-only rounds on K_n are log2 n + ln n + O(1) in
     probability; the O(1) is small.  The mean over 100 fixed-seed
     replicates must sit in a +-3-round band around the closed form. *)
  let n = 128 in
  let net = Dynet.of_static (Gen.clique n) in
  let mc =
    Run.sync_spread_rounds ~reps:100 ~protocol:Protocol.Push (Rng.create 71)
      net
  in
  check int "all replicates complete" 100 mc.Run.completed;
  let expected =
    (log (float_of_int n) /. log 2.) +. log (float_of_int n)
  in
  let m = Descriptive.mean mc.Run.times in
  check bool
    (Printf.sprintf "push rounds mean %.2f ~ log2 n + ln n = %.2f" m expected)
    true
    (abs_float (m -. expected) < 3.)

let test_sync_push_pull_bounds () =
  (* Push-pull on K_n: the informed set at most triples per round, so
     every sample obeys the deterministic bound r >= ceil(log3 n); the
     classical upper tail is log3 n + O(ln ln n), a handful of rounds
     above it. *)
  let n = 243 in
  let net = Dynet.of_static (Gen.clique n) in
  let mc = Run.sync_spread_rounds ~reps:60 (Rng.create 72) net in
  check int "all replicates complete" 60 mc.Run.completed;
  let lower = Float.of_int 5 (* ceil(log3 243) = 5 exactly *) in
  Array.iter
    (fun r ->
      check bool
        (Printf.sprintf "sample %g >= log3 n = %g" r lower)
        true (r >= lower))
    mc.Run.times;
  let m = Descriptive.mean mc.Run.times in
  check bool
    (Printf.sprintf "push-pull rounds mean %.2f inside [%g, %g]" m lower
       (lower +. 6.))
    true
    (m >= lower && m <= lower +. 6.)

(* --- censoring conventions (regression pins) --- *)

(* Nodes 2 and 3 are unreachable, so every replicate censors at the
   horizon: the two runner tiers must expose that differently and
   consistently. *)
let disconnected = Dynet.of_static (Fixtures.of_edges 4 [ (0, 1) ])

let test_classic_censoring_convention () =
  (* Classic tier: a censored replicate contributes the time it
     reached — at least the horizon — and stays in [times], with
     [completed] telling the censored count apart. *)
  let horizon = 7.5 in
  let mc =
    Run.async_spread_times ~reps:20 ~horizon (Rng.create 80) disconnected
  in
  check int "no replicate completes" 0 mc.Run.completed;
  check int "censored replicates stay in the sample" 20
    (Array.length mc.Run.times);
  Array.iter
    (fun t -> check bool "censored entry carries the horizon" true (t >= horizon))
    mc.Run.times

let test_hardened_censoring_convention () =
  (* Hardened tier: censored replicates are tagged, excluded from
     [usable_times] (their times understate the truth), and restored
     under the classic convention only by [mc_of_sweep]. *)
  let horizon = 7.5 in
  let sweep =
    Run.async_spread_sweep ~reps:20 ~horizon (Rng.create 81) disconnected
  in
  let finished, censored, failed = Run.sweep_counts sweep in
  check int "all censored" 20 censored;
  check int "none finished" 0 finished;
  check int "none failed" 0 failed;
  check int "usable_times is Finished-only" 0
    (Array.length (Run.usable_times sweep));
  let mc = Run.mc_of_sweep sweep in
  check int "mc_of_sweep restores the classic sample" 20
    (Array.length mc.Run.times);
  check int "and keeps the completed count honest" 0 mc.Run.completed;
  Array.iter
    (fun t -> check bool "restored entry carries the horizon" true (t >= horizon))
    mc.Run.times

let test_estimate_follows_classic_convention () =
  (* Estimate sits on the classic runner: censored replicates are
     counted, their horizon-valued samples retained, and the requested
     quantile degrades to infinity when it falls in the censored
     mass. *)
  let est =
    Estimate.spread_time ~reps:15 ~q:0.9 ~horizon:5. (Rng.create 82)
      disconnected
  in
  check int "censored count" 15 est.Estimate.censored;
  check int "samples keep censored entries" 15
    (Array.length est.Estimate.samples);
  Array.iter
    (fun t -> check bool "sample at/after horizon" true (t >= 5.))
    est.Estimate.samples;
  check bool "censored quantile flagged infinite" true
    (est.Estimate.point = infinity);
  (* And the estimate is jobs-invariant like everything above it. *)
  let e1 =
    Estimate.spread_time ~jobs:1 ~reps:20 (Rng.create 83)
      (Dynet.of_static (Gen.clique 16))
  in
  let e3 =
    Estimate.spread_time ~jobs:3 ~reps:20 (Rng.create 83)
      (Dynet.of_static (Gen.clique 16))
  in
  check (Alcotest.float 0.) "estimate point identical across jobs"
    e1.Estimate.point e3.Estimate.point

let test_adaptive_censoring_pins () =
  (* Adaptive early stop must not bend the censoring conventions: a
     partially-censored sweep keeps censored replicates out of the
     estimator but inside the budget, and the decided prefix restores
     the classic convention through mc_of_sweep exactly like the
     fixed-count sweep does. *)
  let horizon = 4.0 in
  (* Cycle-48 at a tight horizon: a fraction of replicates censor. *)
  let net = Dynet.of_static (Gen.cycle 48) in
  let config =
    Adaptive.config ~min_reps:8 ~max_reps:64 ~chunk:8 (Adaptive.Abs 0.4)
  in
  let a =
    Run.async_spread_sweep_adaptive ~horizon ~config (Rng.create 83) net
  in
  let finished, censored, failed = Run.sweep_counts a.Run.sweep in
  check int "no replicate fails" 0 failed;
  check int "used counts Finished only" finished a.Run.used;
  check int "consumed = finished + censored" a.Run.consumed
    (finished + censored);
  check int "usable_times excludes censored" finished
    (Array.length (Run.usable_times a.Run.sweep));
  (* mc_of_sweep restores every replicate under the classic convention,
     horizon values included. *)
  let mc = Run.mc_of_sweep a.Run.sweep in
  check int "classic restoration keeps the prefix" a.Run.consumed
    (Array.length mc.Run.times);
  check int "completed honest" finished mc.Run.completed

let () =
  Alcotest.run "conformance"
    [
      ( "ks-cut-vs-tick",
        [
          Alcotest.test_case "star 64/256" `Slow test_ks_star;
          Alcotest.test_case "cycle 64/256" `Slow test_ks_cycle;
          Alcotest.test_case "G(n,p) 64/256" `Slow test_ks_gnp;
        ] );
      ( "limit-law",
        [
          Alcotest.test_case "clique vs exact chain" `Slow
            test_ps_clique_law_exact;
          Alcotest.test_case "PS G(n,p) limit" `Slow test_ps_gnp_limit_law;
          Alcotest.test_case "Acan universal pins" `Slow
            test_acan_universal_pins;
        ] );
      ( "sync-closed-form",
        [
          Alcotest.test_case "push matches Pittel" `Slow test_sync_push_pittel;
          Alcotest.test_case "push-pull round bounds" `Slow
            test_sync_push_pull_bounds;
        ] );
      ( "censoring",
        [
          Alcotest.test_case "classic keeps horizon values" `Quick
            test_classic_censoring_convention;
          Alcotest.test_case "hardened is Finished-only" `Quick
            test_hardened_censoring_convention;
          Alcotest.test_case "Estimate follows the classic tier" `Quick
            test_estimate_follows_classic_convention;
          Alcotest.test_case "adaptive early stop keeps the conventions"
            `Quick test_adaptive_censoring_pins;
        ] );
    ]
