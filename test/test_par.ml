(* Tests for the chunked Domain pool (lib/par) and the split-seed
   determinism contract of the Monte-Carlo runners.

   The load-bearing guarantee under test: every runner's sample is
   bit-identical for ANY job count — replicate r runs on
   [Rng.derive base r], a pure function of the sweep seed and the
   replicate index, and the pool's static chunk partition adds no
   scheduling nondeterminism.  Byte-equality assertions (not
   approximate ones) are deliberate throughout. *)

open Rumor_core.Rumor

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let times_t = Alcotest.(array (float 0.))

(* --- Pool.resolve / chunk partition --- *)

let test_resolve () =
  check int "clamped to task count" 2 (Pool.resolve ~jobs:4 2);
  check int "at least one domain" 1 (Pool.resolve ~jobs:4 0);
  check int "explicit jobs wins" 3 (Pool.resolve ~jobs:3 100);
  Alcotest.check_raises "jobs = 0 rejected"
    (Invalid_argument "Par.Pool: jobs must be at least 1") (fun () ->
      ignore (Pool.resolve ~jobs:0 5));
  Alcotest.check_raises "negative override rejected"
    (Invalid_argument "Par.Pool.set_default_jobs: jobs must be at least 1")
    (fun () -> Pool.set_default_jobs (Some 0))

let test_default_jobs_override () =
  (* The process-wide override (the CLI's --jobs) beats the
     environment and the detected core count. *)
  Fun.protect
    ~finally:(fun () -> Pool.set_default_jobs None)
    (fun () ->
      Pool.set_default_jobs (Some 2);
      check int "override visible" 2 (Pool.default_jobs ());
      check int "resolve uses the override" 2 (Pool.resolve 100);
      Pool.set_default_jobs None;
      check bool "cleared override falls back" true (Pool.default_jobs () >= 1))

let test_chunk_coverage () =
  (* Every index runs exactly once, on the domain the static partition
     assigns it to, in increasing order within each domain. *)
  List.iter
    (fun (jobs, n) ->
      let owner = Array.make (max n 1) (-1) in
      let runs = Array.make (max n 1) 0 in
      let mono = ref true in
      let last_in_domain = Array.make jobs (-1) in
      let st =
        Pool.run ~jobs n (fun ~domain i ->
            owner.(i) <- domain;
            runs.(i) <- runs.(i) + 1;
            if i <= last_in_domain.(domain) then mono := false;
            last_in_domain.(domain) <- i)
      in
      check int "stats.tasks" n st.Pool.tasks;
      check bool "stats.jobs clamped" true (st.Pool.jobs <= max 1 n);
      check int "one wall-time per domain" st.Pool.jobs
        (Array.length st.Pool.wall_s);
      Array.iter (fun r -> check int "each task ran exactly once" 1 r)
        (Array.sub runs 0 n);
      check bool "in-order within each domain" true !mono;
      (* Contiguity: the owner sequence is non-decreasing. *)
      for i = 1 to n - 1 do
        check bool "contiguous chunks" true (owner.(i) >= owner.(i - 1))
      done;
      (* stats.chunk agrees with the observed assignment. *)
      Array.iteri
        (fun d c ->
          let observed =
            Array.fold_left
              (fun acc o -> if o = d then acc + 1 else acc)
              0 (Array.sub owner 0 n)
          in
          check int "chunk count matches" c observed)
        st.Pool.chunk)
    [ (1, 7); (3, 10); (4, 4); (5, 3); (2, 0); (7, 100) ]

let test_run_rejects_negative () =
  Alcotest.check_raises "negative task count"
    (Invalid_argument "Par.Pool.run: negative task count") (fun () ->
      ignore (Pool.run ~jobs:2 (-1) (fun ~domain:_ _ -> ())))

(* --- exception policy --- *)

exception Boom of int

let test_exception_isolation () =
  (* Tasks 1 (domain 0) and 4 (domain 1) raise on a 3-domain pool over
     9 tasks (chunks [0..2][3..5][6..8]).  The raise stops only its own
     domain's chunk; every other domain completes; the lowest-domain
     exception is the one re-raised, whatever the arrival order. *)
  let completed = Array.make 9 false in
  (match
     Pool.run ~jobs:3 9 (fun ~domain:_ i ->
         if i = 1 || i = 4 then raise (Boom i);
         completed.(i) <- true)
   with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> check int "lowest-domain exception wins" 1 i);
  check bool "task before the raise ran" true completed.(0);
  check bool "rest of domain 0 chunk skipped" false completed.(2);
  check bool "domain 1 prefix ran" true completed.(3);
  check bool "rest of domain 1 chunk skipped" false completed.(5);
  check bool "domain 2 unaffected" true
    (completed.(6) && completed.(7) && completed.(8));
  (* Stats are recorded even on the exception path. *)
  match Pool.last () with
  | Some st -> check int "last () after a raising run" 9 st.Pool.tasks
  | None -> Alcotest.fail "last () empty after run"

let test_single_domain_exception () =
  (match Pool.run ~jobs:1 4 (fun ~domain:_ i -> if i = 2 then raise (Boom i))
   with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> check int "sequential raise propagates" 2 i)

(* --- cooperative cancellation tokens --- *)

let test_cancel_pre_cancelled () =
  let token = Pool.token () in
  Pool.cancel token;
  check bool "is_cancelled reads the flag" true (Pool.is_cancelled token);
  let hits = Atomic.make 0 in
  let st =
    Pool.run ~jobs:2 ~cancel:token 10 (fun ~domain:_ _ -> Atomic.incr hits)
  in
  check int "no task starts on a cancelled token" 0 (Atomic.get hits);
  check bool "stats flag the drain" true st.Pool.cancelled;
  Pool.reset token;
  check bool "reset re-arms" false (Pool.is_cancelled token);
  let st2 =
    Pool.run ~jobs:2 ~cancel:token 10 (fun ~domain:_ _ -> Atomic.incr hits)
  in
  check int "re-armed token runs everything" 10 (Atomic.get hits);
  check bool "clean run is not flagged" false st2.Pool.cancelled

let test_cancel_drains_between_tasks () =
  (* The drain guarantee (pool.mli): the in-flight task finishes,
     nothing after it starts — so callers recording per-task outcomes
     see undecided tasks, never partial ones. *)
  let token = Pool.token () in
  let ran = Array.make 12 false in
  let st =
    Pool.run ~jobs:1 ~cancel:token 12 (fun ~domain:_ i ->
        ran.(i) <- true;
        if i = 3 then Pool.cancel token)
  in
  check bool "cancellation reported" true st.Pool.cancelled;
  check bool "in-flight task completed" true ran.(3);
  for i = 4 to 11 do
    check bool (Printf.sprintf "task %d never started" i) false ran.(i)
  done

let test_global_token_drains_every_pool () =
  (* The process-wide token the SIGINT/SIGTERM handlers cancel is
     polled by every run, even without an explicit ?cancel. *)
  Fun.protect
    ~finally:(fun () -> Pool.reset Pool.global)
    (fun () ->
      Pool.cancel Pool.global;
      let hits = Atomic.make 0 in
      let st = Pool.run ~jobs:2 6 (fun ~domain:_ _ -> Atomic.incr hits) in
      check int "no task starts after shutdown" 0 (Atomic.get hits);
      check bool "drain flagged" true st.Pool.cancelled);
  let st = Pool.run ~jobs:2 6 (fun ~domain:_ _ -> ()) in
  check bool "reset global runs normally" false st.Pool.cancelled

(* --- persistent helper domains --- *)

let test_helpers_reused () =
  (* 200 runs at jobs = 3 over 3 tasks run every chunk on the calling
     domain or one of its two helpers; a pool that spawned its domains
     per run would show hundreds of domain ids. *)
  let seen = Hashtbl.create 8 in
  let ids = Array.make 3 0 in
  for _ = 1 to 200 do
    ignore
      (Pool.run ~jobs:3 3 (fun ~domain _ -> ids.(domain) <- (Domain.self () :> int)));
    Array.iter (fun id -> Hashtbl.replace seen id ()) ids
  done;
  check bool
    (Printf.sprintf "at most 3 distinct domains (saw %d)" (Hashtbl.length seen))
    true
    (Hashtbl.length seen <= 3)

let churn_net () = Markovian.network ~n:32 ~p:0.1 ~q:0.3 ~init:(Gen.cycle 32) ()

let sweep_outcomes ~jobs net =
  (Run.async_spread_sweep ~jobs ~reps:8 (Rng.create 77) net).Run.outcomes

let test_nested_and_concurrent () =
  (* Helpers belong to the calling domain: a pool inside a pool body and
     pools on two domains at once neither deadlock nor share a helper,
     and each returns the jobs = 1 outcomes. *)
  let net = churn_net () in
  let reference = sweep_outcomes ~jobs:1 net in
  let nested = Array.make 2 [||] in
  ignore
    (Pool.run ~jobs:2 2 (fun ~domain:_ i -> nested.(i) <- sweep_outcomes ~jobs:2 net));
  Array.iteri
    (fun i o -> check bool (Printf.sprintf "nested pool %d" i) true (o = reference))
    nested;
  let helpers_before = Pool.helpers () in
  let a = Domain.spawn (fun () -> sweep_outcomes ~jobs:2 net)
  and b = Domain.spawn (fun () -> sweep_outcomes ~jobs:2 net) in
  check bool "concurrent caller a" true (Domain.join a = reference);
  check bool "concurrent caller b" true (Domain.join b = reference);
  check int "exited callers left no helper" helpers_before (Pool.helpers ())

module Query = Serve.Query
module Server = Serve.Server

(* A minimal JSONL client: one request, one response line. *)
let query_once port q =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let line = Bytes.of_string (Obs.Json.to_string (Query.to_json q) ^ "\n") in
      let sent = ref 0 in
      while !sent < Bytes.length line do
        sent := !sent + Unix.write fd line !sent (Bytes.length line - !sent)
      done;
      let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
      let deadline = Unix.gettimeofday () +. 60. in
      while not (String.contains (Buffer.contents buf) '\n') do
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0. then Alcotest.fail "no response from the server";
        match Unix.select [ fd ] [] [] left with
        | [], _, _ -> ()
        | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> Alcotest.fail "server closed the connection"
          | k -> Buffer.add_subbytes buf chunk 0 k)
      done;
      Buffer.contents buf)

let test_server_cycles () =
  (* Each cycle's compute domain runs one cold query at jobs = 2, which
     gives it a helper; stopping the server must stop that helper too.
     Leaked helpers would pile up towards the runtime's domain limit. *)
  let dir = Filename.temp_file "rumor-par-serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let before = Pool.helpers () in
      for i = 1 to 50 do
        let config =
          { (Server.default_config ~dir) with Server.jobs = Some 2; fsync = false }
        in
        let t = Server.create config in
        let d = Domain.spawn (fun () -> Server.serve t) in
        let q = { (Query.default ~family:"clique" ~n:16) with Query.reps = 4; seed = i } in
        let reply =
          Fun.protect
            ~finally:(fun () ->
              Server.stop t;
              Domain.join d)
            (fun () -> query_once (Server.port t) q)
        in
        check bool "a cold answer" true
          (Obs.Json.member "cache" (Obs.Json.parse_exn reply)
          = Some (Obs.Json.String "miss"));
        check int (Printf.sprintf "no helper left after cycle %d" i) before
          (Pool.helpers ())
      done)

(* --- Rng.derive: the index-keyed streams under everything --- *)

let test_derive () =
  let base = 0x9E3779B97F4A7C15L in
  let a = Rng.bits64 (Rng.derive base 5) in
  let b = Rng.bits64 (Rng.derive base 5) in
  check bool "derive is a pure function of (base, i)" true (a = b);
  let distinct =
    List.sort_uniq compare
      (List.init 64 (fun i -> Rng.bits64 (Rng.derive base i)))
  in
  check int "sibling streams distinct" 64 (List.length distinct);
  Alcotest.check_raises "negative index rejected"
    (Invalid_argument "Rng.derive: negative child index") (fun () ->
      ignore (Rng.derive base (-1)))

(* --- bit-identity of the runners across job counts --- *)

let faulty_plan =
  Fault_plan.make ~loss:0.3 ~churn:{ Fault_plan.crash = 0.05; recover = 0.5 }
    ()

let test_classic_bit_identity () =
  let net = Dynet.of_static (Gen.clique 16) in
  let sample jobs faults =
    (Run.async_spread_times ~jobs ~reps:12 ?faults (Rng.create 51) net)
      .Run.times
  in
  List.iter
    (fun faults ->
      let s1 = sample 1 faults in
      check times_t "jobs 1 = 2" s1 (sample 2 faults);
      check times_t "jobs 1 = 4" s1 (sample 4 faults))
    [ None; Some faulty_plan ]

let test_engines_bit_identity () =
  let net = Dynet.of_static (Gen.cycle 12) in
  let tick jobs =
    (Run.async_spread_times ~jobs ~engine:Run.Tick ~reps:8 (Rng.create 52) net)
      .Run.times
  in
  check times_t "tick engine jobs 1 = 3" (tick 1) (tick 3);
  let sync jobs =
    (Run.sync_spread_rounds ~jobs ~reps:8 (Rng.create 53) net).Run.times
  in
  check times_t "sync rounds jobs 1 = 3" (sync 1) (sync 3);
  let flood jobs =
    (Run.flooding_rounds ~jobs ~reps:8 (Rng.create 54) net).Run.times
  in
  check times_t "flooding rounds jobs 1 = 3" (flood 1) (flood 3)

let test_sweep_bit_identity () =
  let net = Dynet.of_static (Gen.clique 16) in
  let sweep jobs =
    Run.async_spread_sweep ~jobs ~reps:10 ~faults:faulty_plan (Rng.create 55)
      net
  in
  let s1 = sweep 1 in
  List.iter
    (fun j ->
      let sj = sweep j in
      check bool
        (Printf.sprintf "outcomes identical jobs 1 vs %d" j)
        true
        (s1.Run.outcomes = sj.Run.outcomes);
      check bool
        (Printf.sprintf "seeds identical jobs 1 vs %d" j)
        true
        (s1.Run.seeds = sj.Run.seeds))
    [ 2; 4 ]

let with_temp_file f =
  let path = Filename.temp_file "rumor-par-ckpt" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_resume_across_job_counts () =
  (* Checkpoints are keyed by the index-derived fingerprint, so a sweep
     interrupted at one job count resumes bit-identically at another. *)
  let net = Dynet.of_static (Gen.clique 12) in
  let faults = Fault_plan.message_loss 0.2 in
  let uninterrupted =
    Run.async_spread_sweep ~jobs:2 ~reps:11 ~faults (Rng.create 56) net
  in
  with_temp_file (fun path ->
      let partial =
        Run.async_spread_sweep ~jobs:4 ~reps:5 ~faults ~checkpoint:path
          (Rng.create 56) net
      in
      for i = 0 to 4 do
        check bool "partial prefix matches" true
          (partial.Run.outcomes.(i) = uninterrupted.Run.outcomes.(i))
      done;
      let resumed =
        Run.async_spread_sweep ~jobs:3 ~reps:11 ~faults ~checkpoint:path
          (Rng.create 56) net
      in
      check bool "resumed sweep bit-identical across job counts" true
        (resumed.Run.outcomes = uninterrupted.Run.outcomes
        && resumed.Run.seeds = uninterrupted.Run.seeds))

let test_default_jobs_sample_invariance () =
  (* The sample must not depend on the process-wide default either —
     what --jobs selects is parallelism, never data. *)
  let net = Dynet.of_static (Gen.clique 16) in
  let sample () =
    (Run.async_spread_times ~reps:10 (Rng.create 57) net).Run.times
  in
  Fun.protect
    ~finally:(fun () -> Pool.set_default_jobs None)
    (fun () ->
      Pool.set_default_jobs (Some 1);
      let s1 = sample () in
      Pool.set_default_jobs (Some 3);
      check times_t "default 1 = default 3" s1 (sample ()))

(* --- metric shards --- *)

let test_adaptive_bit_identity () =
  (* The adaptive sweep inherits the full contract: for ANY job count
     the stopping point, the decided prefix (outcomes AND seeds) and
     every reported statistic are byte-identical — the decision is a
     pure function of outcomes in index order, so the pool's schedule
     cannot move it. *)
  let net = Dynet.of_static (Gen.clique 48) in
  let config =
    Adaptive.config ~min_reps:16 ~max_reps:96 ~chunk:16 (Adaptive.Abs 0.25)
  in
  let run jobs =
    Run.async_spread_sweep_adaptive ~jobs ~config (Rng.create 314) net
  in
  let a1 = run 1 in
  List.iter
    (fun jobs ->
      let aj = run jobs in
      check int
        (Printf.sprintf "consumed identical at jobs=%d" jobs)
        a1.Run.consumed aj.Run.consumed;
      check bool
        (Printf.sprintf "outcomes identical at jobs=%d" jobs)
        true
        (a1.Run.sweep.Run.outcomes = aj.Run.sweep.Run.outcomes);
      check bool
        (Printf.sprintf "seeds identical at jobs=%d" jobs)
        true
        (a1.Run.sweep.Run.seeds = aj.Run.sweep.Run.seeds);
      check (Alcotest.float 0.)
        (Printf.sprintf "mean identical at jobs=%d" jobs)
        a1.Run.mean aj.Run.mean;
      check (Alcotest.float 0.)
        (Printf.sprintf "half-width identical at jobs=%d" jobs)
        a1.Run.half_width aj.Run.half_width)
    [ 2; 3; 5; 8 ];
  (* And the RUMOR_JOBS-style process default is equally invisible. *)
  Fun.protect
    ~finally:(fun () -> Pool.set_default_jobs None)
    (fun () ->
      Pool.set_default_jobs (Some 4);
      let a4 = Run.async_spread_sweep_adaptive ~config (Rng.create 314) net in
      check bool "default-jobs adaptive run identical" true
        (a1.Run.sweep.Run.outcomes = a4.Run.sweep.Run.outcomes
        && a1.Run.consumed = a4.Run.consumed))

let test_shard_merge_exactness () =
  (* Recording through per-domain shards then merging must yield a
     byte-identical registry snapshot to direct recording: counter
     addition and bucket increments commute. *)
  let c = Obs.Metrics.counter "test_par.events" in
  let h = Obs.Metrics.histogram ~buckets:[| 1.; 2.; 4. |] "test_par.h" in
  let data = List.init 40 (fun i -> float_of_int (i mod 7) /. 1.5) in
  Obs.Metrics.enable ();
  Obs.Metrics.reset ();
  List.iter
    (fun x ->
      Obs.Metrics.observe h x;
      Obs.Metrics.incr c;
      Obs.Metrics.add c 2)
    data;
  let direct = Obs.Json.to_string (Obs.Metrics.snapshot ()) in
  Obs.Metrics.reset ();
  let shards = Array.init 3 (fun _ -> Obs.Metrics.Shard.create ()) in
  List.iteri
    (fun i x ->
      let s = shards.(i mod 3) in
      Obs.Metrics.Shard.observe s h x;
      for _ = 1 to 3 do
        Obs.Metrics.Shard.incr s c
      done)
    data;
  Array.iter Obs.Metrics.Shard.merge shards;
  let sharded = Obs.Json.to_string (Obs.Metrics.snapshot ()) in
  Obs.Metrics.disable ();
  check Alcotest.string "sharded snapshot byte-identical to direct" direct
    sharded

let test_shard_reuse_and_gating () =
  let c = Obs.Metrics.counter "test_par.gated" in
  Obs.Metrics.enable ();
  Obs.Metrics.reset ();
  let s = Obs.Metrics.Shard.create () in
  for _ = 1 to 5 do
    Obs.Metrics.Shard.incr s c
  done;
  Obs.Metrics.Shard.merge s;
  check int "first merge lands" 5 (Obs.Metrics.value c);
  (* The shard is zeroed by merge: merging again adds nothing. *)
  Obs.Metrics.Shard.merge s;
  check int "merge is idempotent once drained" 5 (Obs.Metrics.value c);
  (* Shards respect the enabled flag like the global entry points. *)
  Obs.Metrics.disable ();
  for _ = 1 to 7 do
    Obs.Metrics.Shard.incr s c
  done;
  Obs.Metrics.Shard.merge s;
  check int "disabled recording is dropped" 5 (Obs.Metrics.value c)

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "resolve" `Quick test_resolve;
          Alcotest.test_case "default-jobs override" `Quick
            test_default_jobs_override;
          Alcotest.test_case "chunk coverage" `Quick test_chunk_coverage;
          Alcotest.test_case "negative task count" `Quick
            test_run_rejects_negative;
          Alcotest.test_case "exception isolation" `Quick
            test_exception_isolation;
          Alcotest.test_case "sequential exception" `Quick
            test_single_domain_exception;
          Alcotest.test_case "helpers reused" `Quick test_helpers_reused;
          Alcotest.test_case "nested and concurrent callers" `Quick
            test_nested_and_concurrent;
          Alcotest.test_case "server cycles stop their helpers" `Quick
            test_server_cycles;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "pre-cancelled token" `Quick
            test_cancel_pre_cancelled;
          Alcotest.test_case "drains between tasks" `Quick
            test_cancel_drains_between_tasks;
          Alcotest.test_case "global shutdown token" `Quick
            test_global_token_drains_every_pool;
        ] );
      ( "split-seed",
        [
          Alcotest.test_case "Rng.derive purity" `Quick test_derive;
          Alcotest.test_case "classic runner bit-identity" `Quick
            test_classic_bit_identity;
          Alcotest.test_case "tick/sync/flooding bit-identity" `Quick
            test_engines_bit_identity;
          Alcotest.test_case "hardened sweep bit-identity" `Quick
            test_sweep_bit_identity;
          Alcotest.test_case "resume across job counts" `Quick
            test_resume_across_job_counts;
          Alcotest.test_case "default-jobs sample invariance" `Quick
            test_default_jobs_sample_invariance;
          Alcotest.test_case "adaptive sweep bit-identity" `Slow
            test_adaptive_bit_identity;
        ] );
      ( "shards",
        [
          Alcotest.test_case "merge exactness" `Quick
            test_shard_merge_exactness;
          Alcotest.test_case "reuse and gating" `Quick
            test_shard_reuse_and_gating;
        ] );
    ]
