(* Layer probes of the traced run.  Each probe times calls into one
   layer from the benchmark's own code (no tracing inside the library)
   and records per-layer metrics on the result.

   [census] runs on the workload's own network; [fixed] runs the
   service-layer probes at the serve-mix query size, identically on
   every workload, so every traced run carries every per-layer metric. *)

open Rumor_core.Rumor
module Json = Obs.Json
module Query = Serve.Query
module Store = Serve.Store

let ms = 1e3
let us = 1e6

let counter name = Obs.Metrics.value (Obs.Metrics.counter name)

let per a b = if b = 0. then 0. else a /. b

(* Repeat [f] (which returns a measured duration) [k] times; median. *)
let median_of k f = Pb.median (Array.init k (fun _ -> f ()))

(* Median per-call time of [f], over [batches] batches of [calls]. *)
let per_call ?(batches = 9) ~calls name f =
  median_of batches (fun () ->
      let t0 = Pb.now () in
      Pb.timed name (fun () ->
          for _ = 1 to calls do
            f ()
          done);
      (Pb.now () -. t0) /. float_of_int calls)

(* --- the workload's own network ------------------------------------- *)

(* Engine, dynamic-graph and driver layers on [net]: pairs of one
   [Run.async_spread_sweep] at jobs = 1 and the same replicates run by
   direct [Async_cut.run] calls on the same derived streams. *)
let census (r : Pb.t) ~(net : Dynet.t) ~batch ~pairs ~seed_of =
  let source = Run.source_of net None in
  Obs.Metrics.enable ();
  let events = ref 0 and steps = ref 0 and reps = ref 0 in
  let words = ref 0. and majors = ref 0 in
  let fenwick = ref 0 and rebuilds = ref 0 in
  let delta_updates = ref 0 and delta_steps = ref 0 in
  let ns_per_event = ref [] and ratios = ref [] in
  for i = 0 to pairs - 1 do
    let seed = seed_of i in
    let t0 = Pb.now () in
    let sweep =
      Pb.timed "run.sweep" (fun () ->
          Run.async_spread_sweep ~jobs:1 ~reps:batch (Rng.create seed) net)
    in
    let sweep_s = Pb.now () -. t0 in
    let base = Rng.bits64 (Rng.create seed) in
    let c0 =
      ( counter "async_cut.fenwick_ops",
        counter "async_cut.weight_rebuilds",
        counter "async_cut.delta_node_updates",
        counter "async_cut.delta_steps" )
    in
    let direct_s = ref 0. in
    for k = 0 to batch - 1 do
      let child = Rng.derive base k in
      let w0 = Gc.minor_words () and m0 = (Gc.quick_stat ()).major_collections in
      let t0 = Pb.now () in
      let res = Pb.timed "async_cut.run" (fun () -> Async_cut.run child net ~source) in
      let dt = Pb.now () -. t0 in
      words := !words +. (Gc.minor_words () -. w0);
      majors := !majors + ((Gc.quick_stat ()).major_collections - m0);
      direct_s := !direct_s +. dt;
      events := !events + res.events;
      steps := !steps + res.steps;
      incr reps;
      ns_per_event := (dt *. 1e9 /. float_of_int (max 1 res.events)) :: !ns_per_event;
      Pb.check r
        (compare sweep.outcomes.(k) (Run.Finished res.time) = 0)
        (Printf.sprintf "census pair %d replicate %d: direct run differs" i k)
    done;
    let f0, r0, u0, d0 = c0 in
    fenwick := !fenwick + counter "async_cut.fenwick_ops" - f0;
    rebuilds := !rebuilds + counter "async_cut.weight_rebuilds" - r0;
    delta_updates := !delta_updates + counter "async_cut.delta_node_updates" - u0;
    delta_steps := !delta_steps + counter "async_cut.delta_steps" - d0;
    ratios := (!direct_s /. sweep_s) :: !ratios
  done;
  Obs.Metrics.disable ();
  let fi = float_of_int in
  Pb.metric r "engine.events_per_rep" "count" (per (fi !events) (fi !reps));
  Pb.metric r "engine.ns_per_event" "ns" (Pb.typical (Array.of_list !ns_per_event));
  Pb.metric r "engine.alloc_words_per_event" "words" (per !words (fi !events));
  Pb.metric r "engine.major_gcs_per_rep" "count" (per (fi !majors) (fi !reps));
  Pb.metric r "engine.fenwick_ops_per_event" "count" (per (fi !fenwick) (fi !events));
  Pb.metric r "engine.weight_rebuilds_per_rep" "count" (per (fi !rebuilds) (fi !reps));
  Pb.metric r "engine.delta_node_updates_per_step" "count"
    (per (fi !delta_updates) (fi !delta_steps));
  Pb.metric r "dynet.steps_per_rep" "count" (per (fi !steps) (fi !reps));
  Pb.metric r "run.driver_overhead_frac" "fraction"
    (1. -. Pb.median (Array.of_list !ratios));
  (* [Dynet.next] on an instance of its own, half the nodes informed. *)
  let inst = net.spawn (Rng.create r.seed) in
  let informed = Bitset.create net.n in
  for u = 0 to (net.n / 2) - 1 do
    ignore (Bitset.add informed u)
  done;
  let sizes = ref 0 in
  let nsteps = 64 in
  let times =
    Array.init nsteps (fun _ ->
        let t0 = Pb.now () in
        let info = Pb.timed "dynet.next" (fun () -> Dynet.next inst ~informed) in
        let dt = Pb.now () -. t0 in
        (match info.delta with Some d -> sizes := !sizes + Dynet.delta_size d | None -> ());
        dt)
  in
  Pb.metric r "dynet.delta_edges_per_step" "count" (per (fi !sizes) (fi nsteps));
  Pb.metric r "dynet.step_us" "us" (us *. Pb.median times)

(* Pool metrics from paired jobs = 1 / jobs = nproc unit times and the
   per-domain busy times [Pool.last] reports after each parallel unit. *)
let pool (r : Pb.t) ~seq ~par ~imbalance ~idle =
  Pb.metric r "pool.speedup" "ratio" (Pb.typical seq /. Pb.typical par);
  Pb.metric r "pool.busy_imbalance" "ratio" (Pb.median imbalance);
  Pb.metric r "pool.idle_frac" "fraction" (Pb.median idle)

(* --- service layers at the serve-mix query size ---------------------- *)

let serve_query (r : Pb.t) i = W_serve.query r (1_000_000 + i)

let fixed (r : Pb.t) =
  let dir = Filename.concat r.work_dir "probes" in
  Pb.mkdirs dir;
  let q = serve_query r 0 in
  (* Checkpoint save/load of one served query's worth of outcomes. *)
  let base = Rng.bits64 (Rng.create 1) in
  let seeds = Array.init q.reps (fun k -> Checkpoint.fingerprint (Rng.derive base k)) in
  let outcomes = Array.init q.reps (fun k -> Some (Run.Finished (float_of_int k +. 0.5))) in
  let cp = Filename.concat dir "probe.ckpt" in
  Pb.metric r "checkpoint.save_ms" "ms"
    (ms *. per_call ~calls:4 "checkpoint.save" (fun () -> Checkpoint.save cp ~seeds ~outcomes));
  Pb.metric r "checkpoint.load_ms" "ms"
    (ms *. per_call ~calls:4 "checkpoint.load" (fun () -> ignore (Checkpoint.load cp)));
  (* The request codec and cache key a hit pays. *)
  Pb.metric r "serve.codec_us" "us"
    (us
    *. per_call ~calls:200 "serve.codec" (fun () ->
           match Query.of_json (Json.parse_exn (Json.to_string (Query.to_json q))) with
           | Ok q -> ignore (Query.key q)
           | Error e -> failwith e));
  (* Store with the server's default fsync. *)
  let store = Store.open_ ~fsync:true ~dir:(Filename.concat dir "store") () in
  let entry q =
    { Store.query = q; quantiles = [| 1.; 2.; 3. |]; reps = q.Query.reps; finished = q.reps;
      censored = 0; failed = 0; wall_s = 0.1 }
  in
  let next = ref 0 in
  Pb.metric r "store.add_us" "us"
    (us
    *. per_call ~calls:4 "store.add" (fun () ->
           incr next;
           let q = serve_query r !next in
           Store.add store (Query.key q) (entry q)));
  let key = Query.key (serve_query r 1) in
  Pb.metric r "store.find_us" "us"
    (us *. per_call ~calls:1000 "store.find" (fun () -> ignore (Store.find store key)));
  Store.close store;
  (* Proto Result frame with CRC trailer, as a TCP worker sends it. *)
  let msg =
    Proto.to_json
      (Proto.Result
         { worker = 1; lease = 42; epoch = 7; task = "s1-u17-t3"; ok = true; wall_s = 0.0123;
           file = ".s1-u17-t3.l42e7.partial"; err = None; transient = false;
           data = Some (String.make 120 'x') })
  in
  Pb.metric r "proto.frame_us" "us"
    (us *. per_call ~calls:1000 "proto.frame" (fun () -> ignore (Proto.frame ~crc:true msg)));
  let frame = Proto.frame ~crc:true msg in
  Pb.metric r "proto.parse_us" "us"
    (us
    *. per_call ~calls:1000 "proto.parse" (fun () ->
           let rd = Proto.reader () in
           Proto.set_crc rd true;
           Proto.feed rd frame (Bytes.length frame);
           ignore (Proto.next rd)));
  (* A lease-journal append with fsync on. *)
  let wal = Wal.open_ ~fsync:true (Filename.concat dir "probe.wal") in
  Pb.metric r "wal.append_us" "us"
    (us
    *. per_call ~calls:4 "wal.append" (fun () ->
           Wal.append wal
             (Json.Obj
                [ ("ev", Json.String "done"); ("task", Json.String "s1-u17-t3");
                  ("lease", Json.Int 42); ("ep", Json.Int 7) ])));
  Wal.close wal;
  (* One served query computed one-shot, and replayed through the
     server's chunk-plus-checkpoint sequence. *)
  let chunk = (Serve.Server.default_config ~dir).chunk in
  let one_shot = ref [] and chunked = ref [] in
  for i = 0 to 4 do
    let q = serve_query r (100 + i) in
    let t0 = Pb.now () in
    ignore (Pb.timed "serve.sweep" (fun () -> Query.sweep ~jobs:1 q));
    one_shot := (Pb.now () -. t0) :: !one_shot;
    let cp = Filename.concat dir (Printf.sprintf "chunked-%d.ckpt" i) in
    let t0 = Pb.now () in
    Pb.timed "serve.chunked_sweep" (fun () ->
        let k = ref 0 in
        while !k < q.reps do
          k := min q.reps (!k + chunk);
          ignore (Query.sweep ~jobs:1 ~checkpoint:cp ~reps:!k q)
        done);
    chunked := (Pb.now () -. t0) :: !chunked
  done;
  let chunked_ms = ms *. Pb.median (Array.of_list !chunked) in
  Pb.metric r "serve.sweep_ms" "ms" (ms *. Pb.median (Array.of_list !one_shot));
  Pb.metric r "serve.chunked_sweep_ms" "ms" chunked_ms;
  (* The campaign task body, in-process. *)
  let compute_ms =
    ms *. per_call ~calls:10 "campaign.task" (fun () -> ignore (W_campaign.render "s1-u1-t1"))
  in
  Pb.metric r "campaign.task_compute_ms" "ms" compute_ms;
  Pb.rm_rf dir;
  (chunked_ms, compute_ms)
