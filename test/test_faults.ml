(* Tests for the fault-injection subsystem and the hardened
   Monte-Carlo runner.

   The load-bearing tests are distribution-level: by the thinning
   identity (paper Eq. 1) a run under per-message loss p must agree in
   distribution with a fault-free run at clock rate 1-p — the two are
   implemented by different mechanisms in the engines, so agreement
   exercises the whole fault path end to end. *)

open Rumor_core.Rumor

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let contains ~sub s =
  let ls = String.length s and lsub = String.length sub in
  let rec go i = i + lsub <= ls && (String.sub s i lsub = sub || go (i + 1)) in
  go 0

(* --- Fault_plan construction and validation --- *)

let test_plan_validation () =
  Alcotest.check_raises "loss = 1 rejected"
    (Invalid_argument "Fault_plan.make: loss must lie in [0, 1)") (fun () ->
      ignore (Fault_plan.make ~loss:1.0 ()));
  Alcotest.check_raises "negative loss rejected"
    (Invalid_argument "Fault_plan.make: loss must lie in [0, 1)") (fun () ->
      ignore (Fault_plan.make ~loss:(-0.1) ()));
  Alcotest.check_raises "churn probability rejected"
    (Invalid_argument "Fault_plan.make: churn probabilities outside [0, 1]")
    (fun () ->
      ignore (Fault_plan.make ~churn:{ crash = 1.5; recover = 0.5 } ()));
  Alcotest.check_raises "empty partition window rejected"
    (Invalid_argument "Fault_plan.make: empty partition window")
    (fun () ->
      ignore
        (Fixtures.partition_window ~from_step:3 ~until_step:3
           ~side:(fun u -> u = 0)));
  let a =
    Fault_plan.availability { Fault_plan.crash = 0.1; recover = 0.3 }
  in
  check bool "availability 0.75" true (abs_float (a -. 0.75) < 1e-12);
  check bool "availability of no churn" true
    (Fault_plan.availability { Fault_plan.crash = 0.; recover = 0. } = 1.0)

let test_plan_state_semantics () =
  (* Partition windows open and close as advance crosses boundaries;
     alive/allows reflect them. *)
  let plan =
    Fixtures.partition_window ~from_step:2 ~until_step:4 ~side:(fun u ->
        u < 2)
  in
  let st = Fault_plan.init plan ~n:4 in
  let rng = Rng.create 7 in
  check bool "window closed at step 0" true (Fault_plan.allows st 0 3);
  ignore (Fault_plan.advance st rng ~step:1);
  check bool "still closed at step 1" true (Fault_plan.allows st 0 3);
  let changed = Fault_plan.advance st rng ~step:2 in
  check bool "opening reports a change" true changed;
  check bool "cross pair blocked" false (Fault_plan.allows st 0 3);
  check bool "same-side pair unaffected" true (Fault_plan.allows st 0 1);
  check bool "blocked is symmetric" true
    ((not (Fault_plan.allows st 0 3)) && not (Fault_plan.allows st 3 0));
  ignore (Fault_plan.advance st rng ~step:3);
  check bool "still open at step 3" false (Fault_plan.allows st 0 3);
  let changed = Fault_plan.advance st rng ~step:4 in
  check bool "closing reports a change" true changed;
  check bool "healed after the window" true (Fault_plan.allows st 0 3)

(* [restricts] is the engines' licence to skip [allows]: it may be
   false only when every pair is allowed. *)
let test_restricts () =
  let rng = Rng.create 3 in
  let restricts plan = Fault_plan.restricts (Fault_plan.init plan ~n:4) in
  check bool "no faults" false (restricts Fault_plan.none);
  check bool "loss alone" false (restricts (Fault_plan.message_loss 0.5));
  check bool "rates alone" false
    (restricts (Fault_plan.make ~node_rate:(fun u -> float_of_int (u + 1)) ()));
  check bool "churn" true (restricts (Fault_plan.node_churn ~crash:0. ~recover:1.));
  let st =
    Fault_plan.init
      (Fixtures.partition_window ~from_step:1 ~until_step:2 ~side:(fun u -> u < 2))
      ~n:4
  in
  check bool "before the window" false (Fault_plan.restricts st);
  ignore (Fault_plan.advance st rng ~step:1);
  check bool "inside the window" true (Fault_plan.restricts st);
  ignore (Fault_plan.advance st rng ~step:2);
  check bool "after the window" false (Fault_plan.restricts st)

let test_deliver_draw_parity () =
  (* A trivial plan must consume no randomness: deliver draws nothing
     at loss = 0 and advance draws nothing without churn. *)
  let st = Fault_plan.init Fault_plan.none ~n:8 in
  let rng = Rng.create 11 in
  let before = Rng.bits64 (Rng.copy rng) in
  for step = 1 to 50 do
    ignore (Fault_plan.advance st rng ~step);
    check bool "deliver always true" true (Fault_plan.deliver st rng)
  done;
  check bool "no draws consumed" true (before = Rng.bits64 (Rng.copy rng))

(* --- Thinning identity: loss p == rate (1 - p) --- *)

let ks_agree ?(reps = 300) ~engine ~p net =
  let samples f =
    let rng = Rng.create 42 in
    (f rng).Run.times
  in
  let lossy =
    samples (fun rng ->
        Run.async_spread_times ~reps ~engine
          ~faults:(Fault_plan.message_loss p) rng net)
  in
  let rescaled =
    samples (fun rng ->
        Run.async_spread_times ~reps ~engine ~rate:(1. -. p) rng net)
  in
  let r = Ks.two_sample lossy rescaled in
  let crit = Ks.critical_value ~n1:reps ~n2:reps ~alpha:0.001 in
  check bool
    (Printf.sprintf "KS D=%.3f below alpha=0.001 critical %.3f" r.Ks.statistic
       crit)
    true
    (r.Ks.statistic < crit)

let test_thinning_cut () =
  List.iter
    (fun (label, net) ->
      ignore label;
      List.iter (fun p -> ks_agree ~engine:Run.Cut ~p net) [ 0.25; 0.5 ])
    [
      ("clique", Dynet.of_static (Gen.clique 16));
      ("star", Dynet.of_static (Gen.star 16));
      ("G2", Dichotomy.g2 ~n:16);
    ]

let test_thinning_tick () =
  List.iter
    (fun p -> ks_agree ~engine:Run.Tick ~p (Dynet.of_static (Gen.clique 16)))
    [ 0.25; 0.5 ]

let test_k2_loss_mean () =
  (* On K2 the fault-free informing rate is 2 (mean 0.5); under loss p
     the surviving rate is 2(1-p), so the mean is 0.5 / (1-p). *)
  let net = Dynet.of_static (Gen.clique 2) in
  let p = 0.4 in
  List.iter
    (fun engine ->
      let mc =
        Run.async_spread_times ~reps:4000 ~engine
          ~faults:(Fault_plan.message_loss p) (Rng.create 9) net
      in
      let m = Descriptive.mean mc.Run.times in
      let expected = 0.5 /. (1. -. p) in
      check bool
        (Printf.sprintf "mean %.3f ~ %.3f" m expected)
        true
        (abs_float (m -. expected) < 0.05))
    [ Run.Cut; Run.Tick ]

let test_k2_rate_heterogeneity () =
  (* Node 0 ticking at rate 2 makes the K2 pair rate 2/1 + 1/1 = 3:
     mean spread time 1/3 on both async engines. *)
  let net = Dynet.of_static (Gen.clique 2) in
  let faults =
    Fault_plan.make ~node_rate:(fun u -> if u = 0 then 2.0 else 1.0) ()
  in
  List.iter
    (fun engine ->
      let mc =
        Run.async_spread_times ~reps:4000 ~engine ~faults (Rng.create 10) net
      in
      let m = Descriptive.mean mc.Run.times in
      check bool
        (Printf.sprintf "mean %.3f ~ 1/3" m)
        true
        (abs_float (m -. (1. /. 3.)) < 0.04))
    [ Run.Cut; Run.Tick ]

let test_partition_delays_k2 () =
  (* K2 split by a partition during steps [0, 3): no delivery can
     happen before time 3, and the run completes after it heals. *)
  let net = Dynet.of_static (Gen.clique 2) in
  let faults =
    Fixtures.partition_window ~from_step:0 ~until_step:3 ~side:(fun u ->
        u = 0)
  in
  List.iter
    (fun engine ->
      let mc =
        Run.async_spread_times ~reps:200 ~engine ~faults ~horizon:1e4
          (Rng.create 12) net
      in
      check int "all runs complete" 200 mc.Run.completed;
      Array.iter
        (fun t -> check bool "no spread before the window closes" true (t >= 3.))
        mc.Run.times)
    [ Run.Cut; Run.Tick ]

let test_crashed_nodes_inert () =
  (* With crash = 1 and recover = 0, every node is dead from step 1 on:
     on a clique only contacts drawn before time 1 can inform, so with
     a far-away horizon the run must stall rather than loop. *)
  let net = Dynet.of_static (Gen.clique 16) in
  let faults = Fault_plan.node_churn ~crash:1.0 ~recover:0.0 in
  let r =
    Async_cut.run ~horizon:50. ~faults (Rng.create 13)
      net ~source:0
  in
  check bool "cannot complete after global crash" false r.Async_result.complete

(* --- Graph-level combinators --- *)

let prop_with_churn_subgraph =
  QCheck.Test.make ~count:50 ~name:"with_churn exposes subgraphs of the base"
    QCheck.(triple (int_range 0 100_000) (int_range 4 24) (int_range 1 10))
    (fun (seed, n, steps) ->
      let g = Gen.clique n in
      let net =
        Fixtures.with_churn ~crash:0.3 ~recover:0.4
          (Dynet.of_static g)
      in
      let inst = net.Dynet.spawn (Rng.create seed) in
      let informed = Bitset.create n in
      let ok = ref true in
      for _ = 1 to steps do
        let info = Dynet.next inst ~informed in
        if Graph.n info.Dynet.graph <> n then ok := false;
        Graph.iter_edges
          (fun u v ->
            if u < 0 || v < 0 || u >= n || v >= n then ok := false;
            if not (Graph.has_edge g u v) then ok := false)
          info.Dynet.graph
      done;
      !ok)

let prop_with_partition_window =
  QCheck.Test.make ~count:50
    ~name:"with_partition cuts cross edges exactly inside the window"
    QCheck.(pair (int_range 0 100_000) (int_range 4 20))
    (fun (seed, n) ->
      let g = Gen.clique n in
      let from_step = 2 and until_step = 5 in
      let side u = u < n / 2 in
      let net =
        Fixtures.with_partition ~from_step ~until_step ~side
          (Dynet.of_static g)
      in
      let inst = net.Dynet.spawn (Rng.create seed) in
      let informed = Bitset.create n in
      let ok = ref true in
      for step = 0 to 7 do
        let info = Dynet.next inst ~informed in
        let in_window = step >= from_step && step < until_step in
        Graph.iter_edges
          (fun u v ->
            if in_window && side u <> side v then ok := false)
          info.Dynet.graph;
        if not in_window then begin
          (* Outside the window the graph must be the full base graph. *)
          if Graph.m info.Dynet.graph <> Graph.m g then ok := false
        end
      done;
      !ok)

(* --- Horizon_exceeded and censored estimates --- *)

let disconnected = Dynet.of_static (Fixtures.of_edges 4 [ (0, 1) ])

(* A run cut short by the horizon carries the time it reached and the
   informed set; a complete run carries its spread time. *)
let test_horizon_exceeded () =
  let r = Async_cut.run ~horizon:10. (Rng.create 21) disconnected ~source:0 in
  check bool "incomplete" false r.Async_result.complete;
  check bool "carries the horizon" true (r.Async_result.time >= 10.);
  check int "carries the informed count" 2
    (Bitset.cardinal r.Async_result.informed);
  let complete = Async_cut.run (Rng.create 22) (Dynet.of_static (Gen.clique 4)) ~source:0 in
  check bool "complete runs carry a finite time" true
    (complete.Async_result.complete && Float.is_finite complete.Async_result.time)

let test_estimate_censored_flag () =
  let est =
    Estimate.spread_time ~reps:40 ~q:0.9 ~horizon:5. (Rng.create 23)
      disconnected
  in
  check int "all reps censored" 40 est.Estimate.censored;
  check bool "point flagged infinite" true (est.Estimate.point = infinity);
  check bool "ci_high flagged infinite" true (est.Estimate.ci_high = infinity);
  check bool "ci_low is a finite lower bound" true
    (Float.is_finite est.Estimate.ci_low);
  (* An uncensored estimate keeps the old behaviour. *)
  let est2 =
    Estimate.spread_time ~reps:40 ~q:0.9 (Rng.create 24)
      (Dynet.of_static (Gen.clique 8))
  in
  check int "no censoring on the clique" 0 est2.Estimate.censored;
  check bool "finite point" true (Float.is_finite est2.Estimate.point)

(* --- Hardened sweep: isolation, watchdog, checkpoint --- *)

let test_sequential_sampler_propagates () =
  (* The classic (non-hardened) sampler must still propagate replicate
     exceptions. *)
  let net = Inject.failing ~spawns:[ 3 ] (Dynet.of_static (Gen.clique 8)) in
  (match Run.async_spread_times ~reps:6 (Rng.create 31) net with
  | _ -> Alcotest.fail "expected Injected_failure"
  | exception Inject.Injected_failure i -> check int "spawn index" 3 i)

let test_sweep_isolates_failures () =
  let reps = 8 in
  let net = Inject.failing ~spawns:[ 2 ] (Dynet.of_static (Gen.clique 16)) in
  let sweep = Run.async_spread_sweep ~reps (Rng.create 32) net in
  let finished, censored, failed = Run.sweep_counts sweep in
  check int "reps - 1 finished" (reps - 1) finished;
  check int "no censoring" 0 censored;
  check int "exactly one failure" 1 failed;
  check int "usable samples" (reps - 1) (Array.length (Run.usable_times sweep));
  (match Run.first_failure sweep with
  | Some msg ->
    check bool "failure message names the injection" true
      (contains ~sub:"Injected_failure" msg)
  | None -> Alcotest.fail "no failure recorded");
  let mc = Run.mc_of_sweep sweep in
  check int "mc drops the failed replicate" (reps - 1) mc.Run.reps;
  check int "mc completed count" (reps - 1) mc.Run.completed

let test_parallel_sweep_isolates_failures () =
  (* Same isolation guarantee on worker domains: the sweep returns (all
     domains joined) with the failure recorded. *)
  let reps = 8 in
  let net = Inject.failing ~spawns:[ 2 ] (Dynet.of_static (Gen.clique 16)) in
  let sweep = Run.async_spread_sweep ~jobs:3 ~reps (Rng.create 32) net in
  let finished, _, failed = Run.sweep_counts sweep in
  check int "reps - 1 finished (parallel)" (reps - 1) finished;
  check int "one failure (parallel)" 1 failed

let test_parallel_sampler_joins_then_raises () =
  (* The classic parallel sampler re-raises the worker exception after
     joining every domain. *)
  let net = Inject.failing ~spawns:[ 1 ] (Dynet.of_static (Gen.clique 8)) in
  match Run.async_spread_times ~jobs:3 ~reps:6 (Rng.create 33) net with
  | _ -> Alcotest.fail "expected Injected_failure"
  | exception Inject.Injected_failure _ -> ()

let test_sweep_watchdog_censors () =
  let net = Dynet.of_static (Gen.clique 32) in
  let sweep = Run.async_spread_sweep ~reps:5 ~max_events:3 (Rng.create 34) net in
  let finished, censored, failed = Run.sweep_counts sweep in
  check int "nothing finished under a 3-event budget" 0 finished;
  check int "all censored" 5 censored;
  check int "no failures" 0 failed;
  Array.iter
    (function
      | Run.Censored t -> check bool "censored time recorded" true (t >= 0.)
      | _ -> Alcotest.fail "expected Censored")
    sweep.Run.outcomes

let test_sweep_deterministic_vs_reps () =
  (* Pre-split child streams: the first k outcomes do not depend on the
     total number of reps. *)
  let net = Dynet.of_static (Gen.clique 12) in
  let s5 = Run.async_spread_sweep ~reps:5 (Rng.create 35) net in
  let s12 = Run.async_spread_sweep ~reps:12 (Rng.create 35) net in
  for i = 0 to 4 do
    check bool "prefix-stable outcome" true
      (s5.Run.outcomes.(i) = s12.Run.outcomes.(i));
    check bool "prefix-stable seed" true (s5.Run.seeds.(i) = s12.Run.seeds.(i))
  done

let with_temp_file f =
  let path = Filename.temp_file "rumor-ckpt" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_checkpoint_roundtrip () =
  with_temp_file (fun path ->
      let seeds = [| 1L; 2L; 3L; 4L |] in
      let outcomes =
        [|
          Some (Run.Finished 3.141592653589793);
          Some (Run.Censored 1e4);
          Some (Run.Failed "boom with spaces\nand a newline");
          None;
        |]
      in
      Checkpoint.save path ~seeds ~outcomes;
      let table = Checkpoint.load path in
      check int "three decided outcomes" 3 (Hashtbl.length table);
      check bool "finished time exact" true
        (Hashtbl.find table 1L = Run.Finished 3.141592653589793);
      check bool "censored time exact" true
        (Hashtbl.find table 2L = Run.Censored 1e4);
      (match Hashtbl.find table 3L with
      | Run.Failed msg ->
        check bool "failure message round-trips" true
          (msg = "boom with spaces\nand a newline")
      | _ -> Alcotest.fail "expected Failed");
      check bool "pending replicate omitted" true (not (Hashtbl.mem table 4L)))

let test_checkpoint_missing_and_garbage () =
  check int "missing file loads empty" 0
    (Hashtbl.length (Checkpoint.load "/nonexistent/rumor-ckpt"));
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc "rumor-checkpoint v1\nnot a valid line\n7b finished 0x1p+1\n";
      close_out oc;
      let table = Checkpoint.load path in
      check int "garbage line skipped" 1 (Hashtbl.length table);
      check bool "valid line kept" true
        (Hashtbl.find table 0x7bL = Run.Finished 2.0))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> In_channel.input_all ic)

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

let with_metrics f =
  Obs.Metrics.enable ();
  Obs.Metrics.reset ();
  Fun.protect ~finally:Obs.Metrics.disable f

let counter_value name = Obs.Metrics.value (Obs.Metrics.counter name)

let test_checkpoint_v2_header_and_crc () =
  (* A fresh checkpoint carries the v2 magic and a payload CRC; a
     flipped payload byte is surfaced via checkpoint.crc_mismatches
     (the file still degrades to per-line parsing, it is not thrown
     away). *)
  with_temp_file (fun path ->
      Checkpoint.save path ~seeds:[| 0x11L; 0x22L |]
        ~outcomes:[| Some (Run.Finished 2.0); Some (Run.Censored 1.5) |];
      let header = String.concat "" [ "rumor-checkpoint v2"; " crc32=" ] in
      check bool "v2 header with crc" true
        (String.length (read_file path) > String.length header
        && String.sub (read_file path) 0 (String.length header) = header);
      check int "round trip" 2 (Hashtbl.length (Checkpoint.load path));
      with_metrics (fun () ->
          let content = read_file path in
          (* Flip a seed hex digit: every line still parses, but the
             payload no longer matches the header CRC. *)
          let flipped =
            String.map (fun c -> if c = '2' then '3' else c) content
          in
          write_file path
            (String.sub content 0 (String.index content '\n')
            ^ String.sub flipped (String.index content '\n')
                (String.length content - String.index content '\n'));
          let table = Checkpoint.load path in
          check int "crc mismatch counted" 1
            (counter_value "checkpoint.crc_mismatches");
          check int "degraded to per-line parsing" 2 (Hashtbl.length table)))

let test_checkpoint_wrong_magic_rejected () =
  with_metrics (fun () ->
      with_temp_file (fun path ->
          write_file path "rumor-checkpoint v9 bogus\n7b finished 0x1p+1\n";
          let table = Checkpoint.load path in
          check int "unknown magic loads nothing" 0 (Hashtbl.length table);
          check int "checkpoint.bad_magic counted" 1
            (counter_value "checkpoint.bad_magic")))

let test_checkpoint_corrupt_lines_counted () =
  (* Satellite of the harness PR: malformed lines are never silently
     dropped — they are tallied in checkpoint.corrupt_lines (one
     stderr warning names the first offender). *)
  with_metrics (fun () ->
      with_temp_file (fun path ->
          write_file path
            "rumor-checkpoint v1\n\
             garbage one\n\
             7b finished 0x1p+1\n\
             garbage two\n";
          let table = Checkpoint.load path in
          check int "valid line kept" 1 (Hashtbl.length table);
          check int "both corrupt lines counted" 2
            (counter_value "checkpoint.corrupt_lines")))

let test_checkpoint_resume_bit_identical () =
  (* Interrupt a sweep after 5 of 12 reps, resume from the checkpoint,
     and require Float-equality with an uninterrupted 12-rep sweep. *)
  let net = Dynet.of_static (Gen.clique 12) in
  let faults = Fault_plan.message_loss 0.2 in
  let uninterrupted =
    Run.async_spread_sweep ~reps:12 ~faults (Rng.create 36) net
  in
  with_temp_file (fun path ->
      let partial =
        Run.async_spread_sweep ~reps:5 ~faults ~checkpoint:path
          (Rng.create 36) net
      in
      for i = 0 to 4 do
        check bool "partial prefix matches" true
          (partial.Run.outcomes.(i) = uninterrupted.Run.outcomes.(i))
      done;
      let resumed =
        Run.async_spread_sweep ~reps:12 ~faults ~checkpoint:path
          (Rng.create 36) net
      in
      check int "resumed to full size" 12 (Array.length resumed.Run.outcomes);
      for i = 0 to 11 do
        check bool
          (Printf.sprintf "replicate %d bit-identical after resume" i)
          true
          (resumed.Run.outcomes.(i) = uninterrupted.Run.outcomes.(i))
      done)

(* A killed parallel sweep leaves a scattered subset of decided
   indices behind, not a prefix.  Checkpoint every third replicate of
   a clean sweep, resume at [jobs]: only the gaps run (one checkpoint
   hit per cached index), and the result is bit-identical.  [reps]
   spans two 32-replicate checkpoint chunks. *)
let scattered_resume_bit_identical ~jobs () =
  let net = Dynet.of_static (Gen.clique 12) in
  let faults = Fault_plan.message_loss 0.2 in
  let reps = 40 in
  let clean = Run.async_spread_sweep ~jobs ~reps ~faults (Rng.create 42) net in
  with_temp_file (fun path ->
      let outcomes =
        Array.mapi
          (fun i o -> if i mod 3 = 0 then Some o else None)
          clean.Run.outcomes
      in
      let subset =
        Array.fold_left
          (fun n o -> if Option.is_some o then n + 1 else n)
          0 outcomes
      in
      Checkpoint.save path ~seeds:clean.Run.seeds ~outcomes;
      with_metrics (fun () ->
          let resumed =
            Run.async_spread_sweep ~jobs ~reps ~faults ~checkpoint:path
              (Rng.create 42) net
          in
          check int "one hit per cached replicate" subset
            (counter_value "run.sweep.checkpoint_hits");
          check bool "seeds agree" true (resumed.Run.seeds = clean.Run.seeds);
          Array.iteri
            (fun i o ->
              check bool
                (Printf.sprintf "replicate %d bit-identical after resume" i)
                true
                (o = clean.Run.outcomes.(i)))
            resumed.Run.outcomes))

let test_checkpoint_written_on_failure_path () =
  (* The Fun.protect finally must persist decided outcomes even though
     a replicate failed mid-sweep. *)
  let net = Inject.failing ~spawns:[ 1 ] (Dynet.of_static (Gen.clique 12)) in
  with_temp_file (fun path ->
      let sweep =
        Run.async_spread_sweep ~reps:4 ~checkpoint:path (Rng.create 37) net
      in
      let _, _, failed = Run.sweep_counts sweep in
      check int "one failure" 1 failed;
      let table = Checkpoint.load path in
      check int "all four outcomes persisted" 4 (Hashtbl.length table))

let () =
  Alcotest.run "faults"
    [
      ( "fault-plan",
        [
          Alcotest.test_case "validation" `Quick test_plan_validation;
          Alcotest.test_case "partition state machine" `Quick
            test_plan_state_semantics;
          Alcotest.test_case "trivial plan draw parity" `Quick
            test_deliver_draw_parity;
          Alcotest.test_case "restricts" `Quick test_restricts;
        ] );
      ( "thinning",
        [
          Alcotest.test_case "loss p == rate 1-p (cut)" `Slow test_thinning_cut;
          Alcotest.test_case "loss p == rate 1-p (tick)" `Slow
            test_thinning_tick;
          Alcotest.test_case "K2 mean under loss" `Slow test_k2_loss_mean;
          Alcotest.test_case "K2 mean under rate heterogeneity" `Slow
            test_k2_rate_heterogeneity;
        ] );
      ( "fault-semantics",
        [
          Alcotest.test_case "partition delays K2" `Quick
            test_partition_delays_k2;
          Alcotest.test_case "crashed nodes are inert" `Quick
            test_crashed_nodes_inert;
          QCheck_alcotest.to_alcotest prop_with_churn_subgraph;
          QCheck_alcotest.to_alcotest prop_with_partition_window;
        ] );
      ( "censoring",
        [
          Alcotest.test_case "Horizon_exceeded payload" `Quick
            test_horizon_exceeded;
          Alcotest.test_case "Estimate flags censored quantiles" `Quick
            test_estimate_censored_flag;
        ] );
      ( "hardened-sweep",
        [
          Alcotest.test_case "classic sampler propagates" `Quick
            test_sequential_sampler_propagates;
          Alcotest.test_case "sweep isolates failures" `Quick
            test_sweep_isolates_failures;
          Alcotest.test_case "parallel sweep isolates failures" `Quick
            test_parallel_sweep_isolates_failures;
          Alcotest.test_case "parallel sampler joins then raises" `Quick
            test_parallel_sampler_joins_then_raises;
          Alcotest.test_case "watchdog censors" `Quick
            test_sweep_watchdog_censors;
          Alcotest.test_case "prefix-stable under reps" `Quick
            test_sweep_deterministic_vs_reps;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "save/load round trip" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "missing and malformed input" `Quick
            test_checkpoint_missing_and_garbage;
          Alcotest.test_case "v2 header and payload CRC" `Quick
            test_checkpoint_v2_header_and_crc;
          Alcotest.test_case "wrong magic rejected" `Quick
            test_checkpoint_wrong_magic_rejected;
          Alcotest.test_case "corrupt lines counted" `Quick
            test_checkpoint_corrupt_lines_counted;
          Alcotest.test_case "resume is bit-identical" `Quick
            test_checkpoint_resume_bit_identical;
          Alcotest.test_case "scattered-subset resume (jobs 1)" `Quick
            (scattered_resume_bit_identical ~jobs:1);
          Alcotest.test_case "scattered-subset resume (jobs 4)" `Quick
            (scattered_resume_bit_identical ~jobs:4);
          Alcotest.test_case "checkpoint survives a failing replicate" `Quick
            test_checkpoint_written_on_failure_path;
        ] );
    ]
