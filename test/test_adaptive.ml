(* Adaptive Monte-Carlo engine: sequential stopping and control
   variates — and their wiring through Run and the serve query.

   The load-bearing contracts under test:
   - the pure stopping rule (Stats.Adaptive) is correct at its edges
     and never reports a CI wider than requested when it converges;
   - the adaptive sweep's decided prefix is BIT-identical to the same
     prefix of a fixed-count sweep, for any job count — so
     checkpoints, the serve store and WAL replay stay valid;
   - the Rao-Blackwell control variate is exactly zero-mean on the
     clique (its residual is deterministic there, so the adjusted
     estimator collapses to the closed-form mean);
   - censored-heavy sweeps stop at the budget with [mean = nan] —
     never a silently understated estimate. *)

open Rumor_core.Rumor

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let flt = Alcotest.float 1e-9
let near tol = Alcotest.float tol

(* --- z_of_level / half_width / target --- *)

let test_z_of_level () =
  (* With sd = 2 over 4 values, sd / sqrt count = 1: the half-width is
     the two-sided normal critical value itself. *)
  let z level = Adaptive.half_width ~level ~count:4 ~sd:2. in
  check (near 1e-3) "z(0.95)" 1.9600 (z 0.95);
  check (near 1e-3) "z(0.99)" 2.5758 (z 0.99);
  check (near 1e-3) "z(0.68) ~ 1 sigma" 0.9945 (z 0.68);
  Alcotest.check_raises "level 0 rejected"
    (Invalid_argument "Adaptive.z_of_level: level must lie in (0, 1)")
    (fun () -> ignore (z 0.));
  Alcotest.check_raises "level 1 rejected"
    (Invalid_argument "Adaptive.z_of_level: level must lie in (0, 1)")
    (fun () -> ignore (z 1.))

let test_half_width () =
  (* z * sd / sqrt n, with the unusable cases pinned to infinity so the
     stopping rule can never converge on them. *)
  check (near 1e-6) "basic" (1.959964 *. 2. /. 4.)
    (Adaptive.half_width ~level:0.95 ~count:16 ~sd:2.);
  check flt "count 0 is infinite" infinity
    (Adaptive.half_width ~level:0.95 ~count:0 ~sd:1.);
  check flt "count 1 is infinite" infinity
    (Adaptive.half_width ~level:0.95 ~count:1 ~sd:1.);
  check flt "nan sd is infinite" infinity
    (Adaptive.half_width ~level:0.95 ~count:10 ~sd:nan);
  check flt "zero sd converges immediately" 0.
    (Adaptive.half_width ~level:0.95 ~count:2 ~sd:0.)

let test_target () =
  let abs = Adaptive.config (Adaptive.Abs 0.25) in
  check flt "absolute target ignores mean" 0.25
    (Adaptive.target abs ~mean:123.);
  let rel = Adaptive.config (Adaptive.Rel 0.1) in
  check flt "relative target scales by |mean|" 0.5
    (Adaptive.target rel ~mean:(-5.));
  check flt "relative target at nan mean is 0" 0.
    (Adaptive.target rel ~mean:nan)

let test_config_validation () =
  Alcotest.check_raises "non-positive width"
    (Invalid_argument "Adaptive.config: width must be positive and finite") (fun () ->
      ignore (Adaptive.config (Adaptive.Abs 0.)));
  Alcotest.check_raises "min > max"
    (Invalid_argument "Adaptive.config: max_reps must be >= min_reps")
    (fun () ->
      ignore (Adaptive.config ~min_reps:10 ~max_reps:5 (Adaptive.Abs 1.)))

(* --- decide: ordering and precedence --- *)

let test_decide () =
  let c =
    Adaptive.config ~min_reps:8 ~max_reps:32 ~chunk:8 (Adaptive.Abs 0.5)
  in
  (* Tight CI but below min_reps: keep going. *)
  check bool "min_reps gates convergence" true
    (Adaptive.decide c ~consumed:4 ~used:4 ~mean:10. ~sd:0.01
     = Adaptive.Continue);
  (* Converged past min_reps. *)
  check bool "converges" true
    (Adaptive.decide c ~consumed:8 ~used:8 ~mean:10. ~sd:0.01
     = Adaptive.Stop Adaptive.Converged);
  (* Wide CI, budget left: continue. *)
  check bool "continues while wide" true
    (Adaptive.decide c ~consumed:16 ~used:16 ~mean:10. ~sd:50.
     = Adaptive.Continue);
  (* Wide CI at the budget: Budget. *)
  check bool "budget exhaustion" true
    (Adaptive.decide c ~consumed:32 ~used:32 ~mean:10. ~sd:50.
     = Adaptive.Stop Adaptive.Budget);
  (* Converged exactly at the budget: Converged wins — the estimate is
     good, the budget coincidence is irrelevant. *)
  check bool "converged at budget reports Converged" true
    (Adaptive.decide c ~consumed:32 ~used:32 ~mean:10. ~sd:0.01
     = Adaptive.Stop Adaptive.Converged);
  (* All-censored at the budget: used = 0 makes the half-width
     infinite, so the only stop is Budget. *)
  check bool "all-censored stops at budget only" true
    (Adaptive.decide c ~consumed:32 ~used:0 ~mean:nan ~sd:nan
     = Adaptive.Stop Adaptive.Budget)

(* --- the chunk driver: Run.async_spread_sweep_adaptive --- *)

let test_run_driver () =
  (* On the clique the control-variate-adjusted sample is constant, so
     the sweep converges at the first boundary past min_reps. *)
  let c =
    Adaptive.config ~min_reps:8 ~max_reps:100 ~chunk:8 (Adaptive.Abs 0.1)
  in
  let r =
    Run.async_spread_sweep_adaptive ~control:(Gen.clique 32) ~config:c
      (Rng.create 3) (Dynet.of_static (Gen.clique 32))
  in
  check int "consumed one chunk" 8 r.Run.consumed;
  check int "one batch" 1 r.Run.batches;
  check bool "converged" true (r.Run.reason = Adaptive.Converged);
  check (near 1e-9) "mean" (Limit_laws.clique_mean 32) r.Run.mean;
  check (near 1e-9) "half-width 0" 0. r.Run.half_width;
  check int "decided prefix is one chunk" 8
    (Array.length r.Run.sweep.Run.outcomes);
  (* All-censored: every chunk runs, used stays 0, reason is Budget;
     the chunk hook sees contiguous prefixes. *)
  let prefixes = ref [] in
  let r2 =
    Run.async_spread_sweep_adaptive ~horizon:2.
      ~on_chunk:(fun s -> prefixes := Array.length s.Run.outcomes :: !prefixes)
      ~config:
        (Adaptive.config ~min_reps:4 ~max_reps:12 ~chunk:4 (Adaptive.Abs 0.1))
      (Rng.create 9)
      (Dynet.of_static (Fixtures.of_edges 4 [ (0, 1) ]))
  in
  check int "all-censored consumes the budget" 12 r2.Run.consumed;
  check int "no usable sample" 0 r2.Run.used;
  check bool "budget reason" true (r2.Run.reason = Adaptive.Budget);
  check bool "nan mean" true (Float.is_nan r2.Run.mean);
  check bool "prefixes grow chunk by chunk" true (List.rev !prefixes = [ 4; 8 ])

let test_run_driver_never_wider_than_target () =
  (* Random widths, budgets and cadences on a small clique: whenever
     the sweep reports Converged, the half-width it reports must be at
     or below the target; otherwise it spent exactly the budget. *)
  let rng = Rng.create 4242 in
  let net = Dynet.of_static (Gen.clique 16) in
  for trial = 1 to 50 do
    let width = 0.05 +. Rng.float rng in
    let c =
      Adaptive.config ~min_reps:8
        ~max_reps:(64 + Rng.int rng 192)
        ~chunk:(4 + Rng.int rng 12)
        (Adaptive.Abs width)
    in
    let r =
      Run.async_spread_sweep_adaptive ~jobs:1 ~config:c
        (Rng.create (trial * 7919)) net
    in
    (match r.Run.reason with
    | Adaptive.Converged ->
      check bool
        (Printf.sprintf "trial %d: hw %.4f <= target %.4f" trial
           r.Run.half_width width)
        true
        (r.Run.half_width <= width)
    | Adaptive.Budget ->
      check int
        (Printf.sprintf "trial %d: budget exhausted" trial)
        c.Adaptive.max_reps r.Run.consumed);
    check bool "consumed within budget" true
      (r.Run.consumed <= c.Adaptive.max_reps
      && r.Run.consumed >= min c.Adaptive.min_reps c.Adaptive.max_reps)
  done

(* --- control variates --- *)

let test_control_variate () =
  (* y = 2c + noise-free offset: a perfect linear control kills all the
     variance; beta recovers the slope. *)
  let controls = [| -2.; -1.; 0.; 1.; 2. |] in
  let values = Array.map (fun c -> 3. +. (2. *. c)) controls in
  let cv = Adaptive.control_variate ~values ~controls () in
  check (near 1e-9) "beta recovers the slope" 2. cv.Adaptive.beta;
  check (near 1e-9) "adjusted mean = raw mean (centred control)" 3.
    cv.Adaptive.mean;
  check (near 1e-9) "adjusted sd 0" 0. cv.Adaptive.sd;
  check bool "variance ratio blows up" true
    (cv.Adaptive.variance_ratio = infinity);
  (* Non-zero control mean shifts nothing when passed explicitly. *)
  let controls2 = [| 8.; 9.; 10.; 11.; 12. |] in
  let values2 = Array.map (fun c -> 3. +. (2. *. (c -. 10.))) controls2 in
  let cv2 =
    Adaptive.control_variate ~control_mean:10. ~values:values2
      ~controls:controls2 ()
  in
  check (near 1e-9) "explicit control mean preserves the estimate" 3.
    cv2.Adaptive.mean

let test_control_variate_degenerate () =
  (* Constant control: zero variance, fall back to beta = 0. *)
  let cv =
    Adaptive.control_variate ~values:[| 1.; 2.; 3. |]
      ~controls:[| 5.; 5.; 5. |] ()
  in
  check flt "degenerate beta" 0. cv.Adaptive.beta;
  check flt "degenerate ratio" 1. cv.Adaptive.variance_ratio;
  check (near 1e-9) "unadjusted mean" 2. cv.Adaptive.mean;
  (* Single sample. *)
  let cv1 = Adaptive.control_variate ~values:[| 7. |] ~controls:[| 1. |] () in
  check flt "n=1 beta" 0. cv1.Adaptive.beta;
  check (near 1e-9) "n=1 mean" 7. cv1.Adaptive.mean;
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Adaptive.control_variate: length mismatch") (fun () ->
      ignore
        (Adaptive.control_variate ~values:[| 1. |] ~controls:[| 1.; 2. |] ()))

(* --- adaptive sweep: prefix bit-identity and convergence --- *)

let net64 () = Dynet.of_static (Gen.clique 64)

let test_sweep_prefix_bit_identity () =
  let config =
    Adaptive.config ~min_reps:16 ~max_reps:128 ~chunk:16 (Adaptive.Abs 0.15)
  in
  let a = Run.async_spread_sweep_adaptive ~jobs:1 ~config (Rng.create 5) (net64 ()) in
  (* The same prefix of a fixed-count sweep, any jobs: byte equality. *)
  let fixed =
    Run.async_spread_sweep ~jobs:4 ~reps:128 (Rng.create 5) (net64 ())
  in
  check int "consumed a chunk multiple" 0 (a.Run.consumed mod 16);
  check bool "outcome prefix bit-identical" true
    (a.Run.sweep.Run.outcomes
    = Array.sub fixed.Run.outcomes 0 a.Run.consumed);
  check bool "seed prefix bit-identical" true
    (a.Run.sweep.Run.seeds = Array.sub fixed.Run.seeds 0 a.Run.consumed);
  (* And the adaptive run itself is jobs-invariant. *)
  let a4 =
    Run.async_spread_sweep_adaptive ~jobs:4 ~config (Rng.create 5) (net64 ())
  in
  check int "consumed jobs-invariant" a.Run.consumed a4.Run.consumed;
  check bool "prefix jobs-invariant" true
    (a.Run.sweep.Run.outcomes = a4.Run.sweep.Run.outcomes);
  check (Alcotest.float 0.) "mean jobs-invariant" a.Run.mean a4.Run.mean

let test_sweep_converged_ci () =
  let target = 0.2 in
  let config =
    Adaptive.config ~min_reps:16 ~max_reps:512 ~chunk:32 (Adaptive.Abs target)
  in
  let a = Run.async_spread_sweep_adaptive ~config (Rng.create 11) (net64 ()) in
  check bool "clique-64 converges well before 512" true
    (a.Run.reason = Adaptive.Converged && a.Run.consumed < 512);
  check bool
    (Printf.sprintf "reported hw %.4f <= %.2f" a.Run.half_width target)
    true
    (a.Run.half_width <= target);
  check bool "mean near the closed form" true
    (abs_float (a.Run.mean -. Limit_laws.clique_mean 64) < 3. *. target)

let test_sweep_control_variate_exact () =
  (* On the clique the Rao-Blackwell residual is deterministic, so the
     CV-adjusted estimator collapses to the exact closed-form mean and
     stops at min_reps. *)
  let config =
    Adaptive.config ~min_reps:16 ~max_reps:256 ~chunk:16 (Adaptive.Abs 0.05)
  in
  let a =
    Run.async_spread_sweep_adaptive ~control:(Gen.clique 64) ~config
      (Rng.create 7) (net64 ())
  in
  check int "stops at min_reps" 16 a.Run.consumed;
  check bool "converged" true (a.Run.reason = Adaptive.Converged);
  check (near 1e-9) "mean is exactly (n-1)H_{n-1}/n"
    (Limit_laws.clique_mean 64) a.Run.mean;
  check (near 1e-9) "half-width collapses" 0. a.Run.half_width;
  (match a.Run.control with
  | None -> Alcotest.fail "control report missing"
  | Some cv ->
    check (near 1e-6) "beta 1 on the exact control" 1. cv.Adaptive.beta;
    check bool "variance ratio reported as savings factor" true
      (cv.Adaptive.variance_ratio > 2.));
  (* The decided prefix is STILL the fixed-count prefix: the control
     changes the stopping point, never the replicate values. *)
  let fixed = Run.async_spread_sweep ~reps:16 (Rng.create 7) (net64 ()) in
  check bool "CV prefix bit-identical to raw sweep" true
    (a.Run.sweep.Run.outcomes = fixed.Run.outcomes)

let test_sweep_control_guards () =
  let config = Adaptive.config ~max_reps:32 (Adaptive.Abs 0.1) in
  let rejects name f =
    match f () with
    | (_ : Run.adaptive) -> Alcotest.failf "%s: no exception" name
    | exception Invalid_argument msg ->
      check bool
        (Printf.sprintf "%s names the adaptive sweep (%s)" name msg)
        true
        (String.length msg > 31
        && String.sub msg 0 31 = "Run.async_spread_sweep_adaptive")
  in
  rejects "control x faults" (fun () ->
      Run.async_spread_sweep_adaptive ~control:(Gen.clique 64)
        ~faults:(Fault_plan.message_loss 0.5) ~config (Rng.create 1)
        (net64 ()));
  rejects "control x checkpoint" (fun () ->
      Run.async_spread_sweep_adaptive ~control:(Gen.clique 64)
        ~checkpoint:"/tmp/never-created.ckpt" ~config (Rng.create 1)
        (net64 ()));
  rejects "control order mismatch" (fun () ->
      Run.async_spread_sweep_adaptive ~control:(Gen.clique 32) ~config
        (Rng.create 1) (net64 ()))

let test_sweep_all_censored () =
  (* Unreachable nodes: every replicate censors; the adaptive sweep
     must burn the whole budget and report nan, never converge. *)
  let disconnected = Dynet.of_static (Fixtures.of_edges 4 [ (0, 1) ]) in
  let config =
    Adaptive.config ~min_reps:4 ~max_reps:24 ~chunk:8 (Adaptive.Abs 0.1)
  in
  let a =
    Run.async_spread_sweep_adaptive ~horizon:2. ~config (Rng.create 9)
      disconnected
  in
  check int "budget fully consumed" 24 a.Run.consumed;
  check int "no usable replicate" 0 a.Run.used;
  check bool "budget reason" true (a.Run.reason = Adaptive.Budget);
  check bool "nan mean, not an understatement" true (Float.is_nan a.Run.mean);
  let _, censored, _ = Run.sweep_counts a.Run.sweep in
  check int "all outcomes censored" 24 censored

(* The replicate-savings gate, at equal CI width.  E1 (clique-256): the
   fixed 256-replicate sweep sets the target half-width, and the
   control-variate adaptive sweep must reach it with at least 2x fewer
   replicates.  E5 (absolute-120, no closed form, no control): the
   adaptive outcomes must be the fixed sweep's prefix. *)
let test_sweep_replicate_savings () =
  let seed = 2020 in
  let budget = 256 in
  let net = Dynet.of_static (Gen.clique 256) in
  let fixed = Run.async_spread_sweep ~reps:budget (Rng.create seed) net in
  let usable = Run.usable_times fixed in
  let s = Stream.create () in
  Array.iter (Stream.add s) usable;
  let fixed_hw =
    Adaptive.half_width ~level:0.95 ~count:(Array.length usable)
      ~sd:(Stream.stddev s)
  in
  let config =
    Adaptive.config ~level:0.95 ~min_reps:16 ~max_reps:budget ~chunk:16
      (Adaptive.Abs fixed_hw)
  in
  let a =
    Run.async_spread_sweep_adaptive ~control:(Gen.clique 256) ~config
      (Rng.create seed) net
  in
  let savings = float_of_int budget /. float_of_int a.Run.consumed in
  check bool
    (Printf.sprintf "E1 savings %.1fx >= 2x (%d of %d)" savings a.Run.consumed
       budget)
    true (savings >= 2.);
  check bool
    (Printf.sprintf "adaptive hw %.4f <= fixed hw %.4f" a.Run.half_width
       fixed_hw)
    true
    (a.Run.half_width <= fixed_hw);
  let dyn = Absolute.network ~n:120 ~rho:(10. /. 120.) in
  let e5_budget = 64 in
  let f5 =
    Run.async_spread_sweep ~horizon:1e7 ~reps:e5_budget
      (Rng.create (seed + 5)) dyn
  in
  let config5 =
    Adaptive.config ~level:0.95 ~min_reps:8 ~max_reps:e5_budget ~chunk:8
      (Adaptive.Rel 0.12)
  in
  let a5 =
    Run.async_spread_sweep_adaptive ~horizon:1e7 ~config:config5
      (Rng.create (seed + 5)) dyn
  in
  check bool "E5 adaptive outcomes = fixed-sweep prefix" true
    (a5.Run.sweep.Run.outcomes
    = Array.sub f5.Run.outcomes 0 a5.Run.consumed)

let test_rao_blackwell_time () =
  (* Clique of 3: informing order fixed, residual rates are exact.
     First event from {0}: rate 2*1*2/2 = 2; second from a 2-set:
     2*2*1/2 = 2.  E[T | order] = 1/2 + 1/2 = 1. *)
  let g = Gen.clique 3 in
  let t = Run.rao_blackwell_time g ~informed_times:[| 0.; 0.3; 0.9 |] in
  check (near 1e-9) "K_3 conditional mean" 1. t;
  (* Matches the closed-form chain directly. *)
  check (near 1e-9) "K_3 closed form" (Limit_laws.clique_mean 3) t;
  (* Incomplete trajectory -> nan. *)
  check bool "non-finite entry -> nan" true
    (Float.is_nan
       (Run.rao_blackwell_time g ~informed_times:[| 0.; 0.5; infinity |]));
  (* Impossible trajectory (informing jump across a cut with no edges):
     path 0-1-2 cannot inform 2 before 1. *)
  let path = Fixtures.of_edges 3 [ (0, 1); (1, 2) ] in
  check bool "zero-rate event -> nan" true
    (Float.is_nan
       (Run.rao_blackwell_time path ~informed_times:[| 0.; 0.9; 0.5 |]));
  (* ... and an isolated node can never be informed at all. *)
  let isolated = Fixtures.of_edges 3 [ (0, 1) ] in
  check bool "isolated node -> nan" true
    (Float.is_nan
       (Run.rao_blackwell_time isolated ~informed_times:[| 0.; 0.5; 0.9 |]))

(* --- Estimate wiring --- *)

let test_workloads_default_adaptive () =
  let module W = Rumor_experiments.Workloads in
  let net = net64 () in
  Fun.protect
    ~finally:(fun () -> Run.set_default_adaptive None)
    (fun () ->
      (* Without the override: the classic fixed-count path. *)
      let m0 = W.measure_async ~reps:64 (Rng.create 41) net in
      check int "fixed path consumes everything" 64 m0.W.reps;
      (* With it: same replicate prefix, early stop. *)
      Run.set_default_adaptive
        (Some (Adaptive.config ~min_reps:16 ~chunk:16 (Adaptive.Rel 0.15)));
      let m1 = W.measure_async ~reps:64 (Rng.create 41) net in
      check bool "adaptive path stops early" true (m1.W.reps < 64);
      check bool "reported reps is the consumed prefix" true
        (m1.W.reps >= 16 && m1.W.reps mod 16 = 0))

(* --- serve query: fingerprint back-compat --- *)

let test_query_ci_fingerprint () =
  let q = Serve.Query.default ~family:"clique" ~n:64 in
  let base_key = Serve.Query.key q in
  (* ci_level alone (the default 0.95 with no width) must not perturb
     the canonical rendering: pre-adaptive stores stay warm. *)
  check bool "default has no ci_width" true (q.Serve.Query.ci_width = None);
  let rendered = Rumor_obs.Json.to_string (Serve.Query.to_json q) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check bool "canonical form omits ci fields" true
    (not (contains rendered "ci_width"));
  (* An adaptive query fingerprints differently — it is a different
     computation. *)
  let qa = { q with Serve.Query.ci_width = Some 0.25 } in
  check bool "adaptive query gets its own key" true
    (Serve.Query.key qa <> base_key);
  (* And round-trips through the wire form. *)
  match Serve.Query.of_json (Serve.Query.to_json qa) with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok qb ->
    check bool "ci_width survives" true (qb.Serve.Query.ci_width = Some 0.25);
    check (Alcotest.float 0.) "ci_level survives" 0.95
      qb.Serve.Query.ci_level;
    check bool "fingerprint stable" true
      (Serve.Query.key qa = Serve.Query.key qb)

let () =
  Alcotest.run "adaptive"
    [
      ( "stopping-rule",
        [
          Alcotest.test_case "z_of_level" `Quick test_z_of_level;
          Alcotest.test_case "half_width edges" `Quick test_half_width;
          Alcotest.test_case "width target" `Quick test_target;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "decide precedence" `Quick test_decide;
          Alcotest.test_case "chunk driver" `Quick test_run_driver;
          Alcotest.test_case "never wider than target" `Quick
            test_run_driver_never_wider_than_target;
        ] );
      ( "control-variate",
        [
          Alcotest.test_case "regression estimator" `Quick
            test_control_variate;
          Alcotest.test_case "degenerate fallbacks" `Quick
            test_control_variate_degenerate;
          Alcotest.test_case "rao-blackwell residual" `Quick
            test_rao_blackwell_time;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "prefix bit-identity" `Slow
            test_sweep_prefix_bit_identity;
          Alcotest.test_case "converged CI honest" `Slow
            test_sweep_converged_ci;
          Alcotest.test_case "clique control variate exact" `Slow
            test_sweep_control_variate_exact;
          Alcotest.test_case "control guards" `Quick test_sweep_control_guards;
          Alcotest.test_case "all-censored stops at budget" `Quick
            test_sweep_all_censored;
          Alcotest.test_case "replicate savings >= 2x" `Quick
            test_sweep_replicate_savings;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "Workloads default funnel" `Slow
            test_workloads_default_adaptive;
          Alcotest.test_case "serve query fingerprint" `Quick
            test_query_ci_fingerprint;
        ] );
    ]
