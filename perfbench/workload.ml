(* The four workloads: set-up, lanes, correctness gates, and either the
   end-to-end metrics (untraced run) or the per-layer census (traced
   run).  perfbench/README.md maps every metric to its layer. *)

open Rumor_core.Rumor
module Json = Obs.Json
module Query = Serve.Query

let ms = 1e3

(* Every workload reports the same four end-to-end metrics; what a
   "unit" is differs per workload (README.md, "End-to-end metrics").
   [scale] puts the lane times at reference host speed ([Pb.host_scale])
   on the CPU-bound workloads; set-up and the printed figures are raw. *)
let end_to_end r ~scale ~setup_s ~base_s ~fast_s =
  Pb.metric r "setup_s" "s" setup_s;
  Pb.metric r "peak_rss_mb" "MB" (Pb.peak_rss_mb ());
  Pb.metric r "base_ms" "ms" (ms *. scale *. base_s);
  Pb.metric r "fast_ms" "ms" (ms *. scale *. fast_s);
  Pb.note r "host_scale" "ratio" scale

let ok_frac (r : Pb.t) =
  Pb.note r "ok_frac" "fraction"
    (float_of_int (r.attempted - r.failed) /. float_of_int (max 1 r.attempted))

(* A traced run spends half its time in the lanes (even units traced,
   odd not) and the rest in the layer probes. *)
let lane_seconds (r : Pb.t) = if r.trace then 0.5 *. r.seconds else r.seconds

let build_s f = Probes.median_of 5 (fun () ->
    let t0 = Pb.now () in
    ignore (Pb.timed "graph.build" f);
    Pb.now () -. t0)

(* Layer census shared by every traced run: engine, dynamic graph and
   driver on the workload's network, then the fixed service probes,
   then the serve and campaign counters ([serve]/[campaign] are the
   workload's own lanes when it has them, else a short session). *)
let census r ~(net : Dynet.t) ~pool ?serve ~campaign () =
  let seed_of i = W_sweep.unit_seed r (500_000 + i) in
  Probes.census r ~net ~batch:W_sweep.batch ~pairs:6 ~seed_of;
  (match pool with
  | Some (l : W_sweep.lanes) ->
    Probes.pool r ~seq:l.seq ~par:l.par ~imbalance:l.imbalance ~idle:l.idle
  | None ->
    let l = W_sweep.run_lanes r net ~batch:W_sweep.batch ~seconds:0.5 ~min_units:4 in
    Probes.pool r ~seq:l.seq ~par:l.par ~imbalance:l.imbalance ~idle:l.idle);
  let chunked_ms, compute_ms = Probes.fixed r in
  let cold, counters, cp_hits =
    match serve with
    | Some x -> x
    | None ->
      let h = W_serve.start r 99 in
      let hits0 = Probes.counter "run.sweep.checkpoint_hits" in
      let l = W_serve.run_lanes r h ~seconds:0. ~min_units:4 in
      W_serve.stop h;
      (l.cold, l.counters, Probes.counter "run.sweep.checkpoint_hits" - hits0)
  in
  let c = counters in
  Pb.metric r "serve.dispatch_ms" "ms" ((ms *. Pb.typical cold) -. chunked_ms);
  Pb.metric r "run.checkpoint_hits_per_query" "count"
    (Probes.per (float_of_int cp_hits) (float_of_int c.Serve.Server.misses));
  Pb.metric r "serve.hits" "count" (float_of_int c.hits);
  Pb.metric r "serve.misses" "count" (float_of_int c.misses);
  Pb.metric r "serve.coalesced" "count" (float_of_int c.coalesced);
  Pb.metric r "serve.shed" "count" (float_of_int c.shed);
  Pb.metric r "serve.errors" "count" (float_of_int c.errors);
  Pb.metric r "campaign.overhead_ms_per_task" "ms"
    ((ms *. Pb.typical campaign.W_campaign.par /. float_of_int (W_campaign.tasks_per_campaign r))
    -. (compute_ms /. float_of_int (Pool.nproc ())))

let overhead r base =
  let on, off = Pb.split r base in
  Pb.metric r "trace.overhead_frac" "fraction" ((Pb.typical on /. Pb.typical off) -. 1.);
  Pb.metric r "host.reference_ms" "ms" (ms *. Pb.typical (Array.of_list !Pb.reference_times))

(* A short campaign session for the traced runs of the other
   workloads.  It must run first: this OCaml runtime refuses
   [Unix.fork] once a process has created a domain. *)
let mini_campaign (r : Pb.t) = W_campaign.run_lanes r ~seconds:0. ~min_units:2

(* --- sweeps --- *)

let sweep (r : Pb.t) kind =
  let campaign = if r.trace then Some (mini_campaign r) else None in
  Pb.tracing := r.trace;
  (* A clique build takes about 0.6 s and leaves tens of MB of garbage:
     fewer repetitions, and each extra instance is collected at once, so
     peak memory reflects one set-up, as a user pays it, not when the GC
     got round to the rest.  (Collecting after the small churn builds
     made its peak memory less steady.) *)
  let reps, teardown =
    match kind with
    | W_sweep.Clique -> (5, fun _ -> Gc.full_major ())
    | W_sweep.Churn -> (9, ignore)
  in
  let setup, net = Pb.first_setup ~reps ~teardown (fun () -> W_sweep.build r kind) in
  Pb.tracing := false;
  let l =
    W_sweep.run_lanes ~setup r net.dynet ~batch:W_sweep.batch ~seconds:(lane_seconds r)
      ~min_units:3
  in
  let setup_s = Pb.setup_s r setup in
  W_sweep.check_outputs r net l;
  Pb.lane_evidence r "lane.jobs1" l.seq;
  Pb.lane_evidence r "lane.jobsN" l.par;
  let per_rep xs = Pb.typical xs /. float_of_int W_sweep.batch in
  if r.trace then begin
    Pb.metric r "graph.build_s" "s" (Pb.median (Pb.durations "graph.build"));
    census r ~net:net.dynet ~pool:(Some l) ~campaign:(Option.get campaign) ();
    overhead r l.seq
  end
  else begin
    end_to_end r ~scale:(Pb.host_scale ()) ~setup_s ~base_s:(per_rep l.seq)
      ~fast_s:(per_rep l.par);
    Pb.note r "reps_per_s" "1/s" (1. /. per_rep l.seq);
    Pb.note r "reps_per_s_par" "1/s" (1. /. per_rep l.par);
    Pb.note r "reps_per_s.mean" "1/s"
      (float_of_int (W_sweep.batch * Array.length l.seq) /. Array.fold_left ( +. ) 0. l.seq)
  end

(* --- serve-mix --- *)

let serve (r : Pb.t) =
  let campaign = if r.trace then Some (mini_campaign r) else None in
  let next = ref 0 in
  let start () =
    incr next;
    W_serve.start r !next
  in
  let setup, h = Pb.first_setup ~reps:15 ~teardown:W_serve.stop start in
  let hits0 = Probes.counter "run.sweep.checkpoint_hits" in
  let l =
    Fun.protect
      ~finally:(fun () -> W_serve.stop h)
      (fun () -> W_serve.run_lanes ~setup r h ~seconds:(lane_seconds r) ~min_units:3)
  in
  let setup_s = Pb.setup_s r setup in
  let cp_hits = Probes.counter "run.sweep.checkpoint_hits" - hits0 in
  Pb.lane_evidence r "lane.cold" l.cold;
  Pb.lane_evidence r "lane.hit" l.hit;
  Pb.lane_evidence r "lane.round" l.rounds;
  if r.trace then begin
    let q = W_serve.query r 0 in
    Pb.metric r "graph.build_s" "s" (build_s (fun () -> Family.build (Query.family_params q)));
    census r
      ~net:(Family.build (Query.family_params q))
      ~pool:None
      ~serve:(l.cold, l.counters, cp_hits)
      ~campaign:(Option.get campaign) ();
    overhead r l.cold
  end
  else begin
    end_to_end r ~scale:(Pb.host_scale ()) ~setup_s ~base_s:(Pb.typical l.cold)
      ~fast_s:(Pb.typical l.hit);
    Pb.note r "cold_ms" "ms" (ms *. Pb.typical l.cold);
    Pb.note r "cold_p90_ms" "ms" (ms *. Pb.quantile l.cold 0.9);
    Pb.note r "hit_ms" "ms" (ms *. Pb.typical l.hit);
    Pb.note r "hit_p99_ms" "ms" (ms *. Pb.quantile l.hit 0.99);
    Pb.note r "req_per_s" "1/s"
      (float_of_int (Array.length l.cold + Array.length l.hit)
      /. Array.fold_left ( +. ) 0. l.rounds)
  end

(* --- campaign --- *)

let campaign (r : Pb.t) =
  let next = ref 0 in
  let setup, () =
    Pb.first_setup ~reps:5 ~teardown:ignore (fun () ->
        incr next;
        W_campaign.setup_once r !next)
  in
  let l = W_campaign.run_lanes ~setup r ~seconds:(lane_seconds r) ~min_units:3 in
  let setup_s = Pb.setup_s r setup in
  Pb.lane_evidence r "lane.workers1" l.seq;
  Pb.lane_evidence r "lane.workersN" l.par;
  let per_task xs = Pb.typical xs /. float_of_int (W_campaign.tasks_per_campaign r) in
  if r.trace then begin
    Pb.metric r "graph.build_s" "s" (build_s (fun () -> Dynet.of_static (Gen.clique 64)));
    census r ~net:(Lazy.force W_campaign.clique) ~pool:None ~campaign:l ();
    overhead r l.seq
  end
  else begin
    (* Campaign units mostly wait on fork, fsync and the coordinator's
       timers, not on this CPU: reference scaling made them less
       steady, so they stay raw. *)
    end_to_end r ~scale:1. ~setup_s ~base_s:(per_task l.seq) ~fast_s:(per_task l.par);
    Pb.note r "tasks_per_s" "1/s" (1. /. per_task l.par);
    Pb.note r "tasks_per_s_w1" "1/s" (1. /. per_task l.seq)
  end

(* --- output --- *)

let provenance (r : Pb.t) =
  [
    ("workload", Json.String r.workload);
    ("seed", Json.Int r.seed);
    ("seconds", Json.Float r.seconds);
    ("trace", Json.Bool r.trace);
    ("nproc", Json.Int (Pool.nproc ()));
    ("ocaml", Json.String Sys.ocaml_version);
    ("rev", Json.String (Option.value (Sys.getenv_opt "PERFBENCH_REV") ~default:"unknown"));
    ("typical", Json.String "interquartile mean of unit times");
  ]

let print (r : Pb.t) =
  if r.trace then Pb.metric r "trace.uncovered_frac" "fraction" (Pb.uncovered_frac ());
  ok_frac r;
  Pb.lane_evidence r "reference" (Array.of_list (List.rev !Pb.reference_times));
  let line (name, v, unit) = Printf.printf "  %-36s %14.6g %s\n" name v unit in
  Printf.printf "%s (%s, seed %d)\n"
    (if r.trace then "per-layer metrics" else "end-to-end metrics")
    r.workload r.seed;
  List.iter line (List.rev r.metrics);
  print_endline "figures (not gated)";
  List.iter line (List.rev r.notes);
  Printf.printf "evidence %s\n"
    (Json.to_string (Json.Obj (provenance r @ List.rev r.evidence)));
  List.iter (Printf.printf "FAILED: %s\n") (List.rev r.failures);
  print_endline (Json.to_string (Pb.result_json r));
  exit (if r.failed = 0 && r.attempted > 0 then 0 else 1)
