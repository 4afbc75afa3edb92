(* Tests for the multi-process campaign layer (lib/harness): the
   length-prefixed wire protocol, the lease table and its epoch
   fencing (live and at journal replay), and the coordinator driving
   real forked worker processes — including the chaos scenarios the
   subsystem exists for: kill -9 mid-batch, heartbeat-timeout zombies
   whose late writes must fence, and byte-identity of the captured
   outputs against a single-worker run.

   Also here: the WAL record-codec fuzzer (random payloads with
   embedded newlines; random byte corruption), asserting recovery
   never crashes, never invents records, and never drops a record
   whose bytes were not touched. *)

open Rumor_core.Rumor

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_file "rumor-coord" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> In_channel.input_all ic)

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

(* --- wire protocol --- *)

let msg_roundtrip m =
  match Proto.of_json (Proto.to_json m) with
  | Some m' -> m = m'
  | None -> false

let test_proto_roundtrip () =
  check bool "hello (legacy)" true
    (msg_roundtrip
       (Proto.Hello
          { worker = 3; pid = 42; proto = 1; token = None; crc = false }));
  check bool "hello (v2, token + crc)" true
    (msg_roundtrip
       (Proto.Hello
          {
            worker = -1; pid = 42; proto = Proto.version;
            token = Some "s3cret"; crc = true;
          }));
  check bool "welcome" true
    (msg_roundtrip
       (Proto.Welcome { worker = 7; proto = Proto.version; crc = true }));
  check bool "reject" true
    (msg_roundtrip (Proto.Reject { reason = "bad token" }));
  check bool "beat" true (msg_roundtrip (Proto.Beat { worker = 0 }));
  check bool "grant" true
    (msg_roundtrip (Proto.Grant { lease = 7; epoch = 19; tasks = [ "E1"; "E2" ] }));
  check bool "stop" true (msg_roundtrip Proto.Stop);
  check bool "ok result" true
    (msg_roundtrip
       (Proto.Result
          {
            worker = 1; lease = 7; epoch = 19; task = "E1"; ok = true;
            wall_s = 1.25; file = ".E1.l7e19.partial"; err = None;
            transient = false; data = None;
          }));
  check bool "ok result with inline data" true
    (msg_roundtrip
       (Proto.Result
          {
            worker = 1; lease = 7; epoch = 19; task = "E1"; ok = true;
            wall_s = 1.25; file = ".E1.l7e19.partial"; err = None;
            transient = false; data = Some "captured\noutput\n";
          }));
  check bool "failed transient result" true
    (msg_roundtrip
       (Proto.Result
          {
            worker = 1; lease = 7; epoch = 19; task = "E1"; ok = false;
            wall_s = 0.5; file = ".E1.l7e19.partial";
            err = Some "oops\nwith a newline"; transient = true; data = None;
          }));
  check bool "unknown k rejected" true
    (Proto.of_json (Obs.Json.Obj [ ("k", Obs.Json.String "nope") ]) = None)

(* Frames survive a socketpair in arbitrarily small reads, newlines in
   payload strings included (the framing is length-prefixed, not
   line-delimited). *)
let test_proto_framing () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      let msgs =
        [
          Proto.Hello
            { worker = 0; pid = 1; proto = 1; token = None; crc = false };
          Proto.Result
            {
              worker = 0; lease = 1; epoch = 1; task = "t\nwith\nnewlines";
              ok = false; wall_s = 0.; file = "f"; err = Some "line1\nline2";
              transient = false; data = None;
            };
          Proto.Stop;
        ]
      in
      List.iter (fun m -> Proto.send a (Proto.to_json m)) msgs;
      (* Feed the reader one byte at a time: reassembly must not care
         where the reads split. *)
      let reader = Proto.reader () in
      let buf = Bytes.create 1 in
      let got = ref [] in
      (try
         while List.length !got < List.length msgs do
           match Unix.read b buf 0 1 with
           | 0 -> raise Exit
           | n ->
             Proto.feed reader buf n;
             let rec pop () =
               match Proto.next reader with
               | Some j ->
                 got := j :: !got;
                 pop ()
               | None -> ()
             in
             pop ()
         done
       with Exit -> ());
      let got = List.rev_map Proto.of_json !got in
      check bool "all frames recovered" true
        (got = List.map (fun m -> Some m) msgs))

let test_proto_oversize_rejected () =
  let reader = Proto.reader () in
  let bogus = Bytes.create 4 in
  (* Length prefix claiming 2 GiB: must raise, not allocate. *)
  Bytes.set bogus 0 '\x7f';
  Bytes.set bogus 1 '\xff';
  Bytes.set bogus 2 '\xff';
  Bytes.set bogus 3 '\xff';
  Proto.feed reader bogus 4;
  check bool "oversize raises" true
    (match Proto.next reader with
    | exception Proto.Protocol_error _ -> true
    | _ -> false)

(* Every single-byte corruption of a CRC-trailered frame — payload or
   trailer — must surface as [Protocol_error], never as a decoded
   frame and never as a silent stall past the frame's length. *)
let test_proto_crc_detects_corruption () =
  let msg = Proto.Grant { lease = 1; epoch = 2; tasks = [ "E1"; "E2" ] } in
  let frame = Proto.frame ~crc:true (Proto.to_json msg) in
  let rd = Proto.reader () in
  Proto.set_crc rd true;
  Proto.feed rd frame (Bytes.length frame);
  check bool "clean frame decodes" true
    (Proto.next rd = Some (Proto.to_json msg));
  for i = 4 to Bytes.length frame - 1 do
    let copy = Bytes.copy frame in
    Bytes.set copy i (Char.chr (Char.code (Bytes.get copy i) lxor 0x20));
    let rd = Proto.reader () in
    Proto.set_crc rd true;
    Proto.feed rd copy (Bytes.length copy);
    match Proto.next rd with
    | exception Proto.Protocol_error _ -> ()
    | Some _ -> Alcotest.failf "corrupted byte %d silently accepted" i
    | None -> Alcotest.failf "corrupted byte %d never detected" i
  done

(* Random multi-message streams (payload strings full of newlines,
   quotes and control bytes), CRC trailers on or off, fed to one
   reader in random chunk sizes — including 1-byte feeds and splits
   inside the length prefix and the trailer.  Every message must come
   back, in order, whatever the chunking. *)
let prop_proto_random_split =
  let fuzz_string rng =
    let len = Rng.int rng 24 in
    String.init len (fun _ ->
        match Rng.int rng 6 with
        | 0 -> '\n'
        | 1 -> '"'
        | 2 -> '\\'
        | 3 -> Char.chr (Rng.int rng 32)
        | _ -> Char.chr (32 + Rng.int rng 95))
  in
  QCheck.Test.make ~count:300
    ~name:"reader survives random chunk splits (CRC on and off)"
    QCheck.(triple (int_range 0 1_000_000) (int_range 1 8) bool)
    (fun (seed, nmsgs, crc) ->
      let rng = Rng.create seed in
      let msgs =
        List.init nmsgs (fun i ->
            match Rng.int rng 3 with
            | 0 ->
              Proto.Grant
                {
                  lease = Rng.int rng 1000; epoch = Rng.int rng 1000;
                  tasks = List.init (Rng.int rng 4) (fun _ -> fuzz_string rng);
                }
            | 1 -> Proto.Beat { worker = i }
            | _ ->
              let ok = Rng.int rng 2 = 0 in
              Proto.Result
                {
                  worker = i; lease = Rng.int rng 1000;
                  epoch = Rng.int rng 1000; task = fuzz_string rng;
                  ok; wall_s = 0.5;
                  file = fuzz_string rng;
                  err =
                    (if Rng.int rng 2 = 0 then Some (fuzz_string rng)
                     else None);
                  (* [cls] only travels on failures: a transient flag
                     on an ok result is not representable on the wire,
                     so generate canonical messages only. *)
                  transient = Rng.int rng 2 = 0 && not ok;
                  data =
                    (if Rng.int rng 2 = 0 then Some (fuzz_string rng)
                     else None);
                })
      in
      let stream = Buffer.create 256 in
      List.iter
        (fun m -> Buffer.add_bytes stream (Proto.frame ~crc (Proto.to_json m)))
        msgs;
      let stream = Buffer.to_bytes stream in
      let reader = Proto.reader () in
      Proto.set_crc reader crc;
      let got = ref [] in
      let pos = ref 0 in
      let len = Bytes.length stream in
      while !pos < len do
        let n = Int.min (1 + Rng.int rng 7) (len - !pos) in
        Proto.feed reader (Bytes.sub stream !pos n) n;
        pos := !pos + n;
        let rec pop () =
          match Proto.next reader with
          | Some j ->
            got := j :: !got;
            pop ()
          | None -> ()
        in
        pop ()
      done;
      List.rev_map Proto.of_json !got = List.map (fun m -> Some m) msgs)

(* --- lease table --- *)

let test_lease_grant_complete () =
  let t = Lease.create () in
  let l = Lease.grant t ~worker:0 [ "a"; "b" ] in
  check int "outstanding after grant" 1 (Lease.outstanding t);
  check bool "complete a" true
    (Lease.complete t ~lease_id:l.Lease.id ~epoch:l.Lease.epoch ~task:"a"
     = `Ok);
  check bool "complete a twice" true
    (Lease.complete t ~lease_id:l.Lease.id ~epoch:l.Lease.epoch ~task:"a"
     = `Unknown_task);
  check bool "complete b retires the lease" true
    (Lease.complete t ~lease_id:l.Lease.id ~epoch:l.Lease.epoch ~task:"b"
     = `Ok);
  check int "retired" 0 (Lease.outstanding t);
  check bool "late duplicate fences" true
    (Lease.complete t ~lease_id:l.Lease.id ~epoch:l.Lease.epoch ~task:"b"
     = `Fenced)

let test_lease_fencing () =
  let t = Lease.create () in
  let l1 = Lease.grant t ~worker:0 [ "a"; "b" ] in
  (* The worker dies with "b" unfinished; its lease is reclaimed and
     "b" regranted under a fresh lease/epoch. *)
  check bool "complete a" true
    (Lease.complete t ~lease_id:l1.Lease.id ~epoch:l1.Lease.epoch ~task:"a"
     = `Ok);
  let pending = Lease.reclaim t ~lease_id:l1.Lease.id in
  check bool "reclaim returns the unfinished task" true (pending = [ "b" ]);
  let l2 = Lease.grant t ~worker:1 [ "b" ] in
  check bool "epoch advanced past the reclaim" true
    (l2.Lease.epoch > l1.Lease.epoch + 1);
  (* The zombie's late write carries the dead lease: fenced. *)
  check bool "stale lease fences" true
    (Lease.complete t ~lease_id:l1.Lease.id ~epoch:l1.Lease.epoch ~task:"b"
     = `Fenced);
  (* The legitimate holder is unaffected. *)
  check bool "fresh lease completes" true
    (Lease.complete t ~lease_id:l2.Lease.id ~epoch:l2.Lease.epoch ~task:"b"
     = `Ok)

let test_lease_wrong_epoch_fences () =
  let t = Lease.create () in
  let l = Lease.grant t ~worker:0 [ "a" ] in
  check bool "mismatched epoch fences even with a live lease id" true
    (Lease.complete t ~lease_id:l.Lease.id ~epoch:(l.Lease.epoch + 1)
       ~task:"a"
     = `Fenced)

let test_lease_replay () =
  let r = Lease.Replay.create () in
  Lease.Replay.note_grant r ~lease_id:1 ~epoch:1;
  check bool "granted is trusted" true
    (Lease.Replay.check_done r ~lease_id:1 ~epoch:1 = `Trusted);
  check bool "wrong epoch fenced" true
    (Lease.Replay.check_done r ~lease_id:1 ~epoch:2 = `Fenced);
  check bool "unknown lease fenced" true
    (Lease.Replay.check_done r ~lease_id:9 ~epoch:1 = `Fenced);
  Lease.Replay.note_reclaim r ~lease_id:1;
  check bool "reclaimed is fenced" true
    (Lease.Replay.check_done r ~lease_id:1 ~epoch:1 = `Fenced)

(* --- WAL record-codec fuzzer ---

   Deterministic pseudo-random campaigns of records (strings with
   embedded newlines, quotes, control bytes), then random single-byte
   corruption of the log body.  Recovery must never crash, never
   produce a record that was not appended, and never lose a record
   none of whose bytes were touched. *)

let fuzz_string rng =
  let len = Rng.int rng 24 in
  String.init len (fun _ ->
      (* Bias towards the characters that stress JSONL framing. *)
      match Rng.int rng 6 with
      | 0 -> '\n'
      | 1 -> '"'
      | 2 -> '\\'
      | 3 -> Char.chr (Rng.int rng 32)  (* control bytes *)
      | _ -> Char.chr (32 + Rng.int rng 95))

let fuzz_record rng i =
  Obs.Json.Obj
    [
      ("i", Obs.Json.Int i);
      ("s", Obs.Json.String (fuzz_string rng));
      ( "nested",
        Obs.Json.List
          [ Obs.Json.String (fuzz_string rng); Obs.Json.Int (Rng.int rng 1000) ]
      );
    ]

let prop_wal_codec_fuzz =
  QCheck.Test.make ~count:150
    ~name:"WAL recovery: no crash, no invention, no untouched loss"
    QCheck.(
      triple (int_range 0 1_000_000) (int_range 1 20) (int_range 0 30))
    (fun (seed, nrec, nflips) ->
      let rng = Rng.create seed in
      let path = Filename.temp_file "rumor-fuzz" ".wal" in
      Sys.remove path;
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun p -> try Sys.remove p with Sys_error _ -> ())
            [ path; Wal.quarantine_path path ])
        (fun () ->
          let records = List.init nrec (fuzz_record rng) in
          let wal = Wal.open_ ~fsync:false path in
          List.iter (Wal.append wal) records;
          Wal.close wal;
          let content = Bytes.of_string (read_file path) in
          (* Line layout: magic header, then one line per record.
             Ranges are computed on the pristine bytes — an earlier
             flip may destroy a separator newline. *)
          let header_end = 1 + Bytes.index content '\n' in
          let ranges =
            Array.init nrec
              (let start = ref header_end in
               fun _ ->
                 let stop = Bytes.index_from content !start '\n' in
                 let r = (!start, stop) in
                 start := stop + 1;
                 r)
          in
          let touched = Array.make nrec false in
          for _ = 1 to nflips do
            let len = Bytes.length content in
            if len > header_end then begin
              let pos = header_end + Rng.int rng (len - header_end) in
              Bytes.set content pos (Char.chr (Rng.int rng 256));
              (* Mark every record whose line covers the corrupted
                 byte; a flipped separator newline merges two lines,
                 so it touches the records on both sides. *)
              for i = 0 to nrec - 1 do
                let start, stop = ranges.(i) in
                if pos >= start && pos <= stop then touched.(i) <- true;
                if pos = stop && i + 1 < nrec then touched.(i + 1) <- true
              done
            end
          done;
          write_file path (Bytes.to_string content);
          let recovery = Wal.read path in
          let render j = Obs.Json.to_string j in
          let count tbl k =
            Option.value ~default:0 (Hashtbl.find_opt tbl k)
          in
          let bump tbl k = Hashtbl.replace tbl k (count tbl k + 1) in
          let original_counts = Hashtbl.create 16 in
          List.iter (fun r -> bump original_counts (render r)) records;
          let recovered_counts = Hashtbl.create 16 in
          List.iter
            (fun r -> bump recovered_counts (render r))
            recovery.Wal.records;
          (* No invention: recovered is a sub-multiset of appended.
             (A flip that leaves the CRC valid for different bytes has
             probability ~2^-32; not a flake source at this count.) *)
          Hashtbl.iter
            (fun k n ->
              if n > count original_counts k then
                QCheck.Test.fail_reportf "invented record %s" k)
            recovered_counts;
          (* No untouched loss: every record whose bytes survived must
             be recovered at least as many times as it survived. *)
          let untouched = Hashtbl.create 16 in
          List.iteri
            (fun i r -> if not touched.(i) then bump untouched (render r))
            records;
          Hashtbl.iter
            (fun k n ->
              if count recovered_counts k < n then
                QCheck.Test.fail_reportf "dropped untouched record %s" k)
            untouched;
          true))

(* --- coordinator, with real forked workers ---

   [spawn] forks this very process; the child runs {!Worker.run} and
   [_exit]s without ever returning into Alcotest.  Forking is safe
   here because the coordinator side never has secondary domains live
   (the worker's heartbeat domain exists only in children). *)

let fork_spawn ?(heartbeat_s = 0.05) ~tasks_dir ~run_task () ~slot ~socket =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    let code =
      try
        Worker.run ~heartbeat_s ~transport:(Worker.Unix_sock socket) ~id:slot
          ~tasks_dir ~run_task ()
      with _ -> 4
    in
    Unix._exit code
  | pid -> pid

let quick_config ~dir ~workers =
  {
    (Coordinator.default_config ~dir ~workers) with
    Coordinator.fsync = false;
    heartbeat_timeout_s = 5.;
  }

(* A deterministic pseudo-experiment: what [Experiment.print] is to
   the CLI, keyed only by the task id. *)
let print_task task =
  let rng = Rng.create (Hashtbl.hash task) in
  Printf.printf "task %s\n" task;
  for _ = 1 to 20 do
    Printf.printf "%Lx\n" (Rng.bits64 rng)
  done

let test_coordinator_runs_tasks () =
  with_temp_dir (fun dir ->
      let tasks = [ "a"; "b"; "c"; "d"; "e" ] in
      let config = quick_config ~dir ~workers:2 in
      let spawn =
        fork_spawn ~tasks_dir:(Coordinator.tasks_dir config)
          ~run_task:print_task ()
      in
      let summary = Coordinator.run ~spawn config tasks in
      check int "exit code" 0 (Coordinator.exit_code summary);
      List.iter
        (fun (id, outcome) ->
          check bool (id ^ " done") true
            (match outcome with Campaign.Done _ -> true | _ -> false);
          check bool (id ^ " output captured") true
            (let out = read_file (Coordinator.output_path config id) in
             String.length out > 0))
        summary.Coordinator.outcomes)

let run_campaign ~dir ~workers ?chaos ?(run_task = print_task)
    ?(tasks = [ "a"; "b"; "c"; "d"; "e" ]) () =
  let config =
    { (quick_config ~dir ~workers) with Coordinator.chaos_kill_every_s = chaos }
  in
  let spawn =
    fork_spawn ~tasks_dir:(Coordinator.tasks_dir config) ~run_task ()
  in
  (Coordinator.run ~spawn config tasks, config)

let outputs config tasks =
  List.map (fun id -> read_file (Coordinator.output_path config id)) tasks

let test_coordinator_byte_identity () =
  let tasks = [ "a"; "b"; "c"; "d"; "e" ] in
  with_temp_dir (fun dir1 ->
      with_temp_dir (fun dir4 ->
          let s1, c1 = run_campaign ~dir:dir1 ~workers:1 ~tasks () in
          let s4, c4 = run_campaign ~dir:dir4 ~workers:4 ~tasks () in
          check int "workers 1 clean" 0 (Coordinator.exit_code s1);
          check int "workers 4 clean" 0 (Coordinator.exit_code s4);
          check bool "captured outputs byte-identical" true
            (outputs c1 tasks = outputs c4 tasks)))

(* kill -9 mid-batch: the first attempt of the victim task SIGKILLs
   its own worker after leaving a marker; the reassigned attempt sees
   the marker and completes normally.  The campaign must finish with
   the reassignment journaled, the output byte-identical to an
   undisturbed single-worker run, and --resume all-cached. *)
let test_coordinator_kill9_reassign_and_resume () =
  let tasks = [ "a"; "b"; "victim"; "d" ] in
  with_temp_dir (fun ref_dir ->
      with_temp_dir (fun dir ->
          let ref_summary, ref_config =
            run_campaign ~dir:ref_dir ~workers:1 ~tasks ()
          in
          check int "reference clean" 0 (Coordinator.exit_code ref_summary);
          let marker = Filename.concat dir "victim-died-once" in
          let run_task task =
            if task = "victim" && not (Sys.file_exists marker) then begin
              write_file marker "";
              Unix.kill (Unix.getpid ()) Sys.sigkill
            end;
            print_task task
          in
          let config = quick_config ~dir ~workers:2 in
          let spawn =
            fork_spawn ~tasks_dir:(Coordinator.tasks_dir config) ~run_task ()
          in
          let summary = Coordinator.run ~spawn config tasks in
          check int "clean completion" 0 (Coordinator.exit_code summary);
          check bool "victim done" true
            (List.assoc "victim" summary.Coordinator.outcomes
             |> function Campaign.Done _ -> true | _ -> false);
          check bool "death observed" true
            (summary.Coordinator.worker_deaths >= 1);
          check bool "lease reassigned" true
            (summary.Coordinator.reassignments >= 1);
          check bool "replacement forked" true
            (summary.Coordinator.worker_restarts >= 1);
          check bool "outputs match the undisturbed run" true
            (outputs ref_config tasks = outputs config tasks);
          (* Resume: everything journaled-done is served from cache;
             nothing re-runs, outputs untouched. *)
          let resumed =
            Coordinator.run ~spawn
              { config with Coordinator.resume = true }
              tasks
          in
          check bool "resume flag" true resumed.Coordinator.resumed;
          check int "all cached" (List.length tasks)
            resumed.Coordinator.cached;
          check bool "resume outputs identical" true
            (outputs ref_config tasks = outputs config tasks)))

(* A poison task that kills every worker it lands on: each death
   charges the attempt budget, so it must end quarantined (not loop
   forever), with the rest of the campaign unharmed. *)
let test_coordinator_poison_task_quarantined () =
  with_temp_dir (fun dir ->
      let run_task task =
        if task = "poison" then Unix.kill (Unix.getpid ()) Sys.sigkill;
        print_task task
      in
      let config =
        { (quick_config ~dir ~workers:2) with Coordinator.retries = 1 }
      in
      let spawn =
        fork_spawn ~tasks_dir:(Coordinator.tasks_dir config) ~run_task ()
      in
      let summary = Coordinator.run ~spawn config [ "a"; "poison"; "b" ] in
      check int "exit code 1" 1 (Coordinator.exit_code summary);
      check bool "poison quarantined" true
        (List.assoc "poison" summary.Coordinator.outcomes
         |> function Campaign.Quarantined _ -> true | _ -> false);
      List.iter
        (fun id ->
          check bool (id ^ " survived") true
            (List.assoc id summary.Coordinator.outcomes
             |> function Campaign.Done _ -> true | _ -> false))
        [ "a"; "b" ])

(* Chaos mode on forked workers: kills land every 50ms across a
   5-task campaign of ~150ms tasks (so lease holders are hit), and
   the outputs must still be byte-identical to an undisturbed run —
   the sleep shapes the race, never the bytes. *)
let test_coordinator_chaos_byte_identity () =
  let tasks = [ "a"; "b"; "c"; "d"; "e" ] in
  let slow_task task =
    Unix.sleepf 0.15;
    print_task task
  in
  with_temp_dir (fun ref_dir ->
      with_temp_dir (fun dir ->
          let _, ref_config = run_campaign ~dir:ref_dir ~workers:1 ~tasks () in
          let summary, config =
            run_campaign ~dir ~workers:3 ~chaos:0.05 ~run_task:slow_task
              ~tasks ()
          in
          check int "chaos run clean" 0 (Coordinator.exit_code summary);
          check bool "chaos kills landed" true
            (summary.Coordinator.chaos_kills >= 1);
          check bool "outputs byte-identical under chaos" true
            (outputs ref_config tasks = outputs config tasks)))

(* Heartbeat-timeout zombie: a hand-rolled first incarnation of slot 0
   connects, takes a lease, then stops heartbeating — without dying.
   After the timeout the coordinator must reclaim the lease and regrant
   it; when the zombie finally submits its stale result, the stale
   (lease, epoch) stamp must fence it, and the canonical output must be
   the replacement's bytes. *)
let test_coordinator_zombie_is_fenced () =
  with_temp_dir (fun dir ->
      let config =
        {
          (quick_config ~dir ~workers:1) with
          Coordinator.heartbeat_timeout_s = 0.3;
        }
      in
      let tdir = Coordinator.tasks_dir config in
      let zombie_payload = "ZOMBIE OUTPUT: must never be accepted\n" in
      let slot0_spawns = ref 0 in
      let spawn ~slot ~socket =
        if slot = 0 then incr slot0_spawns;
        if slot = 0 && !slot0_spawns = 1 then begin
          flush stdout;
          flush stderr;
          match Unix.fork () with
          | 0 ->
            (try
               let fd =
                 Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
               in
               Unix.connect fd (Unix.ADDR_UNIX socket);
               Proto.send fd
                 (Proto.to_json
                    (Proto.Hello
                       {
                         worker = slot; pid = Unix.getpid ();
                         proto = Proto.version; token = None; crc = false;
                       }));
               let reader = Proto.reader () in
               let recv () = Option.bind (Proto.recv fd reader) Proto.of_json in
               (match (recv (), recv ()) with
               | ( Some (Proto.Welcome _),
                   Some (Proto.Grant { lease; epoch; tasks = task :: _ }) ) ->
                 (* Outlive the declared death, then submit with the
                    (by now reclaimed) lease stamp. *)
                 Unix.sleepf 0.9;
                 let file = Worker.partial_name ~task ~lease ~epoch in
                 write_file (Filename.concat tdir file) zombie_payload;
                 Proto.send fd
                   (Proto.to_json
                      (Proto.Result
                         {
                           worker = slot; lease; epoch; task; ok = true;
                           wall_s = 0.; file; err = None; transient = false;
                           data = None;
                         }));
                 (* Stay alive until the coordinator hangs up. *)
                 let rec drain () =
                   match Proto.recv fd reader with
                   | Some _ -> drain ()
                   | None -> ()
                 in
                 drain ()
               | _ -> ())
             with _ -> ());
            Unix._exit 0
          | pid -> pid
        end
        else
          fork_spawn ~tasks_dir:tdir
            ~run_task:(fun task ->
              (* Slow enough that the campaign is still running when
                 the zombie's stale result arrives. *)
              Unix.sleepf 1.0;
              print_task task)
            () ~slot ~socket
      in
      let summary = Coordinator.run ~spawn config [ "t" ] in
      check int "clean completion" 0 (Coordinator.exit_code summary);
      check bool "zombie death journaled" true
        (summary.Coordinator.worker_deaths >= 1);
      check bool "stale result fenced" true (summary.Coordinator.fences >= 1);
      check bool "task reassigned" true
        (summary.Coordinator.reassignments >= 1);
      let out = read_file (Coordinator.output_path config "t") in
      check bool "canonical output is the replacement's" true
        (out <> zombie_payload && String.length out > 0))

(* Journal replay fencing: hand-craft a WAL in which task [t1]'s done
   record carries a lease that was reclaimed earlier in the log (the
   zombie's write raced a coordinator crash into the journal), while
   [t2]'s done record is properly fenced and has its output on disk.
   A --resume must re-run t1 and serve t2 from cache. *)
let test_coordinator_replay_fencing () =
  with_temp_dir (fun dir ->
      let config =
        { (quick_config ~dir ~workers:1) with Coordinator.resume = true }
      in
      Unix.mkdir (Coordinator.tasks_dir config) 0o755;
      let wal = Wal.open_ ~fsync:false (Coordinator.wal_path config) in
      let j fields = Obs.Json.Obj fields in
      let s v = Obs.Json.String v and i v = Obs.Json.Int v in
      List.iter (Wal.append wal)
        [
          j [ ("k", s "lease"); ("ev", s "grant"); ("lease", i 1);
              ("ep", i 1); ("w", i 0);
              ("tasks", Obs.Json.List [ s "t1" ]) ];
          j [ ("k", s "lease"); ("ev", s "reclaim"); ("lease", i 1);
              ("ep", i 2); ("w", i 0) ];
          (* Zombie's record: lease 1 was reclaimed above — fence. *)
          j [ ("k", s "task"); ("id", s "t1"); ("ev", s "done");
              ("att", i 1); ("wall", s "0x1p-1"); ("lease", i 1);
              ("ep", i 1); ("w", i 0) ];
          j [ ("k", s "lease"); ("ev", s "grant"); ("lease", i 2);
              ("ep", i 3); ("w", i 0);
              ("tasks", Obs.Json.List [ s "t2" ]) ];
          j [ ("k", s "task"); ("id", s "t2"); ("ev", s "done");
              ("att", i 1); ("wall", s "0x1p-1"); ("lease", i 2);
              ("ep", i 3); ("w", i 0) ];
        ];
      Wal.close wal;
      (* t1's output exists too — replay must reject it anyway, on the
         lease stamp alone. *)
      write_file (Coordinator.output_path config "t1") "stale zombie bytes\n";
      write_file (Coordinator.output_path config "t2") "trusted bytes\n";
      let spawn =
        fork_spawn ~tasks_dir:(Coordinator.tasks_dir config)
          ~run_task:print_task ()
      in
      let summary = Coordinator.run ~spawn config [ "t1"; "t2" ] in
      check int "replay fenced t1" 1 summary.Coordinator.replay_fenced;
      check int "t2 cached" 1 summary.Coordinator.cached;
      check bool "t1 re-ran" true
        (List.assoc "t1" summary.Coordinator.outcomes
         |> function Campaign.Done _ -> true | _ -> false);
      check bool "t1 output replaced" true
        (read_file (Coordinator.output_path config "t1")
        <> "stale zombie bytes\n");
      check bool "t2 output untouched" true
        (read_file (Coordinator.output_path config "t2") = "trusted bytes\n"))

(* A half-open client that sends part of a frame and then goes silent
   must be dropped after the heartbeat timeout and counted — it must
   not pin a select slot for the life of the campaign.  The real
   worker, heartbeating normally, must be unaffected. *)
let test_coordinator_stalled_stray_dropped () =
  with_temp_dir (fun dir ->
      let config =
        {
          (quick_config ~dir ~workers:1) with
          Coordinator.heartbeat_timeout_s = 0.4;
        }
      in
      let stray_pid = ref None in
      let spawn ~slot ~socket =
        (if !stray_pid = None then begin
           flush stdout;
           flush stderr;
           match Unix.fork () with
           | 0 ->
             (try
                let fd =
                  Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
                in
                Unix.connect fd (Unix.ADDR_UNIX socket);
                (* two bytes of a length prefix, then silence *)
                ignore (Unix.write fd (Bytes.make 2 '\000') 0 2);
                Unix.sleepf 30.
              with _ -> ());
             Unix._exit 0
           | pid -> stray_pid := Some pid
         end);
        fork_spawn ~tasks_dir:(Coordinator.tasks_dir config)
          ~run_task:(fun task ->
            (* keep the campaign alive well past the stall timeout *)
            Unix.sleepf 0.3;
            print_task task)
          () ~slot ~socket
      in
      let summary = Coordinator.run ~spawn config [ "a"; "b"; "c" ] in
      (match !stray_pid with
      | Some pid -> (
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      | None -> ());
      check int "campaign unaffected" 0 (Coordinator.exit_code summary);
      check bool "stalled stray dropped and counted" true
        (summary.Coordinator.stalled_drops >= 1);
      check bool "no worker death misattributed" true
        (summary.Coordinator.worker_deaths = 0))

(* A trusted done record whose output file was deleted out from under
   the journal must re-run, not silently count as cached. *)
let test_coordinator_replay_missing_output_reruns () =
  with_temp_dir (fun dir ->
      let tasks = [ "a"; "b" ] in
      let summary1, config = run_campaign ~dir ~workers:1 ~tasks () in
      check int "first run clean" 0 (Coordinator.exit_code summary1);
      Sys.remove (Coordinator.output_path config "a");
      let spawn =
        fork_spawn ~tasks_dir:(Coordinator.tasks_dir config)
          ~run_task:print_task ()
      in
      let summary =
        Coordinator.run ~spawn
          { config with Coordinator.resume = true }
          tasks
      in
      check int "only b cached" 1 summary.Coordinator.cached;
      check bool "a re-ran" true
        (List.assoc "a" summary.Coordinator.outcomes
         |> function Campaign.Done _ -> true | _ -> false);
      check bool "a output restored" true
        (Sys.file_exists (Coordinator.output_path config "a")))

(* --- TCP workers, through the deterministic chaos proxy ---

   Topology per test: remote worker processes dial a netchaos proxy,
   which forwards to the coordinator's TCP listener.  The OCaml 5
   runtime permanently refuses [Unix.fork] once any domain has ever
   been spawned in the process, and {!Netchaos.start} runs its relay
   loop in a domain — so the proxy lives in a forked child process of
   its own, keeping this (heavily forking) test binary domain-free.
   Ports are reserved up front by binding an ephemeral socket and
   closing it, so proxy, workers and coordinator can all be told
   their addresses in advance. *)

let free_port () =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> assert false)

let fork_tcp_worker ?(heartbeat_s = 0.05) ?read_timeout_s ?token ~port
    ~tasks_dir ~run_task () =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    let code =
      try
        Worker.run ~heartbeat_s ?read_timeout_s
          ~transport:(Worker.Tcp { host = "127.0.0.1"; port; token })
          ~id:(-1) ~tasks_dir ~run_task ()
      with _ -> 4
    in
    Unix._exit code
  | pid -> pid

let wait_exit pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> c
  | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> -1
  | exception Unix.Unix_error _ -> -1

let fork_proxy ~seed ~port ~forward_port fault =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (try
       let _proxy =
         Netchaos.start ~seed ~port ~forward_host:"127.0.0.1" ~forward_port
           fault
       in
       let rec wait () =
         Unix.sleepf 3600.;
         wait ()
       in
       wait ()
     with _ -> ());
    Unix._exit 1
  | pid -> pid

let stop_proxy pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

(* Keep the campaign alive long enough for every forked worker to
   finish joining (and for byte-budgeted faults to land mid-stream);
   the sleep shapes timing, never the captured bytes. *)
let slow_task task =
  Unix.sleepf 0.15;
  print_task task

(* Run [tasks] on [nworkers] remote TCP workers behind a chaos proxy
   with [fault]; returns (summary, config, worker exit codes).  The
   workers spool partials into their own directory — distinct from
   the campaign's tasks dir — so the captured bytes can only have
   travelled inline in result frames. *)
let run_tcp_campaign ~dir ~nworkers ~fault ?token ?(proxy_seed = 7)
    ?(heartbeat_s = 0.05) ?read_timeout_s ?(run_task = slow_task) ~tasks () =
  let p_coord = free_port () in
  let p_proxy = free_port () in
  let config =
    {
      (quick_config ~dir ~workers:0) with
      Coordinator.listen = Some ("127.0.0.1", p_coord);
      token;
    }
  in
  let spool = Filename.concat dir "wspool" in
  Unix.mkdir spool 0o755;
  let proxy = fork_proxy ~seed:proxy_seed ~port:p_proxy ~forward_port:p_coord fault in
  let pids =
    List.init nworkers (fun _ ->
        fork_tcp_worker ~heartbeat_s ?read_timeout_s ?token ~port:p_proxy
          ~tasks_dir:spool ~run_task ())
  in
  Fun.protect
    ~finally:(fun () -> stop_proxy proxy)
    (fun () ->
      let summary =
        Coordinator.run
          ~spawn:(fun ~slot:_ ~socket:_ ->
            Alcotest.fail "spawn called with zero local workers")
          config tasks
      in
      let codes = List.map wait_exit pids in
      (summary, config, codes))

let test_tcp_campaign_byte_identity () =
  let tasks = [ "a"; "b"; "c"; "d"; "e" ] in
  with_temp_dir (fun ref_dir ->
      with_temp_dir (fun dir ->
          let _, ref_config = run_campaign ~dir:ref_dir ~workers:1 ~tasks () in
          let summary, config, codes =
            run_tcp_campaign ~dir ~nworkers:2 ~fault:Netchaos.passthrough
              ~token:"tcp-e2e" ~tasks ()
          in
          check int "campaign clean" 0 (Coordinator.exit_code summary);
          check bool "workers exited 0" true
            (List.for_all (fun c -> c = 0) codes);
          check bool "remote workers in the manifest" true
            (List.exists
               (fun w -> w.Coordinator.remote)
               summary.Coordinator.workers);
          check bool "inline outputs byte-identical to local run" true
            (outputs ref_config tasks = outputs config tasks)))

(* One forced mid-campaign reset: the link is abortively cut after
   ~1.5 KiB (well past admission, inside the stream of inline
   results), exactly once.  The worker must reconnect, resume its
   worker id, re-send what the coordinator never processed — and the
   outputs must not bear a single different byte. *)
let test_tcp_reconnect_after_reset () =
  let tasks = [ "a"; "b"; "c"; "d"; "e" ] in
  with_temp_dir (fun ref_dir ->
      with_temp_dir (fun dir ->
          let _, ref_config = run_campaign ~dir:ref_dir ~workers:1 ~tasks () in
          let fault =
            {
              Netchaos.passthrough with
              Netchaos.reset_after_bytes = Some 1536;
              max_resets = Some 1;
            }
          in
          let summary, config, codes =
            run_tcp_campaign ~dir ~nworkers:1 ~fault ~tasks ()
          in
          check int "campaign clean despite the reset" 0
            (Coordinator.exit_code summary);
          check bool "worker exited 0" true
            (List.for_all (fun c -> c = 0) codes);
          check bool "worker resumed its slot" true
            (summary.Coordinator.remote_reconnects >= 1);
          check bool "outputs byte-identical across the reset" true
            (outputs ref_config tasks = outputs config tasks)))

(* Random single-byte corruption on the wire: the negotiated CRC
   trailer must turn every hit into a protocol error and a reconnect —
   never a silently accepted frame — and the campaign must still end
   with byte-identical outputs. *)
let test_tcp_corruption_detected () =
  let tasks = [ "a"; "b"; "c"; "d"; "e" ] in
  with_temp_dir (fun ref_dir ->
      with_temp_dir (fun dir ->
          let _, ref_config = run_campaign ~dir:ref_dir ~workers:1 ~tasks () in
          (* Seed 3 deterministically corrupts early chunks of the
             first link in both directions; at one beat per 0.2 s the
             chunk indices land mid-campaign.  The rate stays low and
             the worker's read timeout short so recovery always
             outpaces the next hit. *)
          let fault =
            { Netchaos.passthrough with Netchaos.corrupt_p = 0.08 }
          in
          let summary, config, codes =
            run_tcp_campaign ~dir ~nworkers:1 ~fault ~proxy_seed:3
              ~heartbeat_s:0.2 ~read_timeout_s:3. ~tasks ()
          in
          check int "campaign clean under corruption" 0
            (Coordinator.exit_code summary);
          check bool "worker exited 0" true
            (List.for_all (fun c -> c = 0) codes);
          check bool "corruption forced at least one reconnect" true
            (summary.Coordinator.remote_reconnects >= 1);
          check bool "outputs byte-identical under corruption" true
            (outputs ref_config tasks = outputs config tasks)))

(* A worker with the wrong campaign token is refused at the door: a
   terminal Reject, worker exit 3, no lease ever granted to it.  A
   correctly-tokened worker on the same listener carries the campaign
   to a clean finish. *)
let test_tcp_bad_token_rejected () =
  let tasks = [ "a"; "b"; "c"; "d"; "e" ] in
  with_temp_dir (fun dir ->
      let p_coord = free_port () in
      let config =
        {
          (quick_config ~dir ~workers:0) with
          Coordinator.listen = Some ("127.0.0.1", p_coord);
          token = Some "right";
        }
      in
      let spool = Filename.concat dir "wspool" in
      Unix.mkdir spool 0o755;
      (* Slow tasks keep the campaign alive long enough that the bad
         worker's hello always lands while the listener is still up —
         otherwise it exits 3 for the wrong reason (unreachable) and
         no rejection is ever counted. *)
      let bad =
        fork_tcp_worker ~token:"wrong" ~port:p_coord ~tasks_dir:spool
          ~run_task:slow_task ()
      in
      let good =
        fork_tcp_worker ~token:"right" ~port:p_coord ~tasks_dir:spool
          ~run_task:slow_task ()
      in
      let summary =
        Coordinator.run
          ~spawn:(fun ~slot:_ ~socket:_ ->
            Alcotest.fail "spawn called with zero local workers")
          config tasks
      in
      let bad_code = wait_exit bad in
      let good_code = wait_exit good in
      check int "campaign clean" 0 (Coordinator.exit_code summary);
      check int "rejected worker exits 3" 3 bad_code;
      check int "admitted worker exits 0" 0 good_code;
      check bool "rejection counted" true (summary.Coordinator.rejected >= 1);
      List.iter
        (fun id ->
          check bool (id ^ " done") true
            (List.assoc id summary.Coordinator.outcomes
             |> function Campaign.Done _ -> true | _ -> false))
        tasks)

(* --- forked workers speak the same protocol ---

   Admission, resume and lease stamps on the Unix socket. *)

(* A hello that is not a protocol-2 hello of this campaign is refused
   at the door with a terminal Reject: one without [v], one with
   [v] = 1, and a well-formed one naming the local slot with a pid
   that is not that slot's process (what an orphan of an earlier
   coordinator would send after --resume).  A prober process sends
   all three; the real worker finishes the campaign undisturbed. *)
let test_coordinator_admission_rejects () =
  with_temp_dir (fun dir ->
      let config = quick_config ~dir ~workers:1 in
      let prober = ref None in
      let spawn ~slot ~socket =
        let worker =
          fork_spawn ~tasks_dir:(Coordinator.tasks_dir config)
            ~run_task:(fun task ->
              Unix.sleepf 0.1;
              print_task task)
            () ~slot ~socket
        in
        (if !prober = None then begin
           flush stdout;
           flush stderr;
           match Unix.fork () with
           | 0 ->
             let rejected hello =
               try
                 let fd =
                   Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
                 in
                 Unix.connect fd (Unix.ADDR_UNIX socket);
                 Proto.send fd hello;
                 let reply =
                   Proto.recv ~deadline:(Obs.Clock.now_s () +. 5.) fd
                     (Proto.reader ())
                 in
                 Unix.close fd;
                 match Option.bind reply Proto.of_json with
                 | Some (Proto.Reject _) -> true
                 | _ -> false
               with _ -> false
             in
             let hello fields =
               Obs.Json.Obj
                 ([ ("k", Obs.Json.String "hello"); ("w", Obs.Json.Int slot);
                    ("pid", Obs.Json.Int (Unix.getpid ())) ]
                 @ fields)
             in
             let ok =
               rejected (hello [])
               && rejected
                    (hello
                       [ ("v", Obs.Json.Int 1); ("crc", Obs.Json.Bool false) ])
               && rejected
                    (Proto.to_json
                       (Proto.Hello
                          {
                            worker = slot; pid = Unix.getpid ();
                            proto = Proto.version; token = None; crc = true;
                          }))
             in
             Unix._exit (if ok then 0 else 1)
           | pid -> prober := Some pid
         end);
        worker
      in
      let summary = Coordinator.run ~spawn config [ "a"; "b"; "c" ] in
      let prober_code =
        match !prober with
        | Some pid -> (
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED c -> c
          | _ -> -1)
        | None -> -1
      in
      check int "campaign clean" 0 (Coordinator.exit_code summary);
      check int "all three hellos got a Reject" 0 prober_code;
      check int "rejections counted" 3 summary.Coordinator.rejected;
      check bool "no worker death misattributed" true
        (summary.Coordinator.worker_deaths = 0))

(* An in-test Unix-socket relay between forked workers and the
   coordinator.  It forwards whole frames both ways and asks [fault]
   about each one: pass it, drop it (a whole frame vanishing, as
   through a broken middlebox), or pass it and then cut the
   connection.  The first frame each way (hello, welcome) is plain;
   every later one carries the CRC trailer both sides negotiate.  The
   relay lives in a forked process so this test binary stays free of
   extra domains. *)
let fork_relay ~listen_path ~target fault =
  let lfd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX listen_path);
  Unix.listen lfd 8;
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (try
       let buf = Bytes.create 65536 in
       (* worker side, coordinator side, and one reader per direction *)
       let pairs = ref [] in
       let close_pair (a, b, _, _) =
         (try Unix.close a with Unix.Unix_error _ -> ());
         (try Unix.close b with Unix.Unix_error _ -> ());
         pairs := List.filter (fun (a', _, _, _) -> a' <> a) !pairs
       in
       while true do
         let fds =
           lfd :: List.concat_map (fun (a, b, _, _) -> [ a; b ]) !pairs
         in
         let ready, _, _ = Unix.select fds [] [] (-1.) in
         List.iter
           (fun fd ->
             if fd = lfd then begin
               let a, _ = Unix.accept ~cloexec:true lfd in
               let b =
                 Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
               in
               Unix.connect b (Unix.ADDR_UNIX target);
               pairs := (a, b, Proto.reader (), Proto.reader ()) :: !pairs
             end
             else
               match
                 List.find_opt (fun (a, b, _, _) -> fd = a || fd = b) !pairs
               with
               | None -> ()
               | Some ((a, b, up, down) as pair) -> (
                 match Unix.read fd buf 0 (Bytes.length buf) with
                 | 0 | (exception Unix.Unix_error _) -> close_pair pair
                 | n ->
                   let dir, reader, dst =
                     if fd = a then (`Up, up, b) else (`Down, down, a)
                   in
                   Proto.feed reader buf n;
                   let rec pump () =
                     match Proto.next reader with
                     | None -> ()
                     | Some j -> (
                       let crc = Proto.crc_enabled reader in
                       Proto.set_crc reader true;
                       match fault dir (Proto.of_json j) with
                       | `Pass ->
                         Proto.send ~crc dst j;
                         pump ()
                       | `Drop -> pump ()
                       | `Cut ->
                         Proto.send ~crc dst j;
                         close_pair pair)
                   in
                   pump ()))
           ready
       done
     with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close lfd;
    pid

(* A one-worker campaign whose worker reaches the coordinator through
   [fork_relay] with [fault].  Heartbeats keep flowing whatever frames
   are lost, so a recovery bug would hang rather than time out: an
   alarm turns that into a failure. *)
let run_relayed_campaign ~dir ~tasks fault =
  let config = quick_config ~dir ~workers:1 in
  let relay = ref None in
  let relay_path = Filename.concat dir "relay.sock" in
  let spawn ~slot ~socket =
    if !relay = None then
      relay := Some (fork_relay ~listen_path:relay_path ~target:socket fault);
    fork_spawn ~tasks_dir:(Coordinator.tasks_dir config) ~run_task:slow_task
      () ~slot ~socket:relay_path
  in
  let previous =
    Sys.signal Sys.sigalrm
      (Sys.Signal_handle (fun _ -> failwith "relayed campaign hung"))
  in
  ignore (Unix.alarm 60);
  let summary =
    Fun.protect
      ~finally:(fun () ->
        ignore (Unix.alarm 0);
        Sys.set_signal Sys.sigalrm previous;
        Option.iter stop_proxy !relay)
      (fun () -> Coordinator.run ~spawn config tasks)
  in
  (summary, config)

(* A forked worker whose Unix-socket connection is cut mid-batch
   (right after its first grant) resumes its slot: no death, no
   respawn, a counted reconnect, and outputs byte-identical to a
   single-worker run. *)
let test_coordinator_unix_cut_resumes () =
  let tasks = [ "a"; "b"; "c"; "d"; "e" ] in
  with_temp_dir (fun ref_dir ->
      with_temp_dir (fun dir ->
          let _, ref_config = run_campaign ~dir:ref_dir ~workers:1 ~tasks () in
          let cut = ref false in
          let summary, config =
            run_relayed_campaign ~dir ~tasks (fun dir msg ->
                match (dir, msg) with
                | `Down, Some (Proto.Grant _) when not !cut ->
                  cut := true;
                  `Cut
                | _ -> `Pass)
          in
          check int "campaign clean" 0 (Coordinator.exit_code summary);
          check int "no worker death" 0 summary.Coordinator.worker_deaths;
          check int "no respawn" 0 summary.Coordinator.worker_restarts;
          check bool "the slot resumed" true
            (summary.Coordinator.remote_reconnects >= 1);
          check bool "outputs byte-identical across the cut" true
            (outputs ref_config tasks = outputs config tasks)))

(* A grant and a result that vanish whole, without breaking the
   stream: the worker's idle heartbeats show the coordinator that
   work is missing, the lease is regranted, and the campaign ends
   clean and byte-identical without a death or a reconnect. *)
let test_coordinator_lost_frames_regranted () =
  let tasks = [ "a"; "b"; "c" ] in
  with_temp_dir (fun ref_dir ->
      with_temp_dir (fun dir ->
          let _, ref_config = run_campaign ~dir:ref_dir ~workers:1 ~tasks () in
          let grant_lost = ref false and result_lost = ref false in
          let summary, config =
            run_relayed_campaign ~dir ~tasks (fun dir msg ->
                match (dir, msg) with
                | `Down, Some (Proto.Grant _) when not !grant_lost ->
                  grant_lost := true;
                  `Drop
                | `Up, Some (Proto.Result _) when not !result_lost ->
                  result_lost := true;
                  `Drop
                | _ -> `Pass)
          in
          check int "campaign clean" 0 (Coordinator.exit_code summary);
          check int "no worker death" 0 summary.Coordinator.worker_deaths;
          check int "no reconnect" 0 summary.Coordinator.remote_reconnects;
          check bool "outputs byte-identical despite the lost frames" true
            (outputs ref_config tasks = outputs config tasks)))

(* Lease stamps stay unique across --resume.  The journal holds a
   grant of lease 1 at epoch 1 and its reclaim.  The first resume must
   stamp its grant above both, or the second resume, replaying lease
   1's reclaim, distrusts a task that finished correctly and runs it
   again. *)
let test_coordinator_resume_stamps_unique () =
  with_temp_dir (fun dir ->
      let config =
        { (quick_config ~dir ~workers:1) with Coordinator.resume = true }
      in
      Unix.mkdir (Coordinator.tasks_dir config) 0o755;
      let wal = Wal.open_ ~fsync:false (Coordinator.wal_path config) in
      let j fields = Obs.Json.Obj fields in
      let s v = Obs.Json.String v and i v = Obs.Json.Int v in
      List.iter (Wal.append wal)
        [
          j [ ("k", s "lease"); ("ev", s "grant"); ("lease", i 1);
              ("ep", i 1); ("w", i 0); ("tasks", Obs.Json.List [ s "a" ]) ];
          j [ ("k", s "lease"); ("ev", s "reclaim"); ("lease", i 1);
              ("ep", i 2); ("w", i 0) ];
        ];
      Wal.close wal;
      let spawn =
        fork_spawn ~tasks_dir:(Coordinator.tasks_dir config)
          ~run_task:print_task ()
      in
      let first = Coordinator.run ~spawn config [ "a" ] in
      check bool "first resume runs a" true
        (List.assoc "a" first.Coordinator.outcomes
         |> function Campaign.Done _ -> true | _ -> false);
      let second = Coordinator.run ~spawn config [ "a" ] in
      check int "second resume serves a from the journal" 1
        second.Coordinator.cached;
      check int "nothing fenced at replay" 0 second.Coordinator.replay_fenced)

(* Reconnect backoff: pure function of (seed, attempt), exponential
   up to the 3 s cap, jittered into [0.5, 1.5) of the base — so it is
   reproducible per worker yet staggered across a fleet. *)
let test_worker_backoff () =
  for attempt = 1 to 12 do
    let base = Float.min 3. (0.05 *. (2. ** float_of_int (attempt - 1))) in
    let d = Worker.backoff_s ~seed:5L ~attempt in
    check bool
      (Printf.sprintf "attempt %d within jitter envelope" attempt)
      true
      (d >= 0.5 *. base && d < 1.5 *. base);
    check bool
      (Printf.sprintf "attempt %d deterministic" attempt)
      true
      (Worker.backoff_s ~seed:5L ~attempt = d)
  done;
  check bool "different seeds decorrelate" true
    (Worker.backoff_s ~seed:5L ~attempt:6
    <> Worker.backoff_s ~seed:6L ~attempt:6)

let () =
  Alcotest.run "coordinator"
    [
      ( "proto",
        [
          Alcotest.test_case "message codec round trip" `Quick
            test_proto_roundtrip;
          Alcotest.test_case "framing survives 1-byte reads" `Quick
            test_proto_framing;
          Alcotest.test_case "oversize frame rejected" `Quick
            test_proto_oversize_rejected;
          Alcotest.test_case "CRC trailer detects every 1-byte corruption"
            `Quick test_proto_crc_detects_corruption;
          QCheck_alcotest.to_alcotest prop_proto_random_split;
        ] );
      ( "lease",
        [
          Alcotest.test_case "grant and complete" `Quick
            test_lease_grant_complete;
          Alcotest.test_case "reclaim fences the old holder" `Quick
            test_lease_fencing;
          Alcotest.test_case "wrong epoch fences" `Quick
            test_lease_wrong_epoch_fences;
          Alcotest.test_case "replay fencing decisions" `Quick
            test_lease_replay;
        ] );
      ( "wal-fuzz",
        [ QCheck_alcotest.to_alcotest prop_wal_codec_fuzz ] );
      ( "coordinator",
        [
          Alcotest.test_case "runs tasks on forked workers" `Quick
            test_coordinator_runs_tasks;
          Alcotest.test_case "byte-identity across worker counts" `Quick
            test_coordinator_byte_identity;
          Alcotest.test_case "kill -9 mid-batch, reassign, resume" `Quick
            test_coordinator_kill9_reassign_and_resume;
          Alcotest.test_case "poison task quarantined" `Quick
            test_coordinator_poison_task_quarantined;
          Alcotest.test_case "chaos kills keep byte-identity" `Quick
            test_coordinator_chaos_byte_identity;
          Alcotest.test_case "zombie's late result fenced" `Quick
            test_coordinator_zombie_is_fenced;
          Alcotest.test_case "stalled stray connection dropped" `Quick
            test_coordinator_stalled_stray_dropped;
          Alcotest.test_case "journal replay fences reclaimed lease" `Quick
            test_coordinator_replay_fencing;
          Alcotest.test_case "missing output re-runs despite journal" `Quick
            test_coordinator_replay_missing_output_reruns;
          Alcotest.test_case "bad hellos rejected at admission" `Quick
            test_coordinator_admission_rejects;
          Alcotest.test_case "cut Unix socket: slot resumes, identical" `Quick
            test_coordinator_unix_cut_resumes;
          Alcotest.test_case "lost grant and result regranted" `Quick
            test_coordinator_lost_frames_regranted;
          Alcotest.test_case "lease stamps unique across resumes" `Quick
            test_coordinator_resume_stamps_unique;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "reconnect backoff deterministic and bounded"
            `Quick test_worker_backoff;
          Alcotest.test_case "remote workers via proxy, byte-identical" `Quick
            test_tcp_campaign_byte_identity;
          Alcotest.test_case "forced reset: reconnect, resume, identical"
            `Quick test_tcp_reconnect_after_reset;
          Alcotest.test_case "wire corruption caught by CRC, identical"
            `Quick test_tcp_corruption_detected;
          Alcotest.test_case "bad token rejected at admission" `Quick
            test_tcp_bad_token_rejected;
        ] );
    ]
