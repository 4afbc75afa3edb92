(* Tests for the supervised campaign harness (lib/harness): the
   CRC-framed write-ahead log and its crash recovery, per-replicate
   deadline censoring, and the campaign runner (failure
   classification, done-task skipping, interrupt, quarantine,
   manifest).  The replicate-level kill-and-resume differential tests
   live with the checkpoint tests in test_faults. *)

open Rumor_core.Rumor

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let contains ~sub s =
  let ls = String.length s and lsub = String.length sub in
  let rec go i = i + lsub <= ls && (String.sub s i lsub = sub || go (i + 1)) in
  go 0

let counter_value name = Obs.Metrics.value (Obs.Metrics.counter name)

let with_metrics f =
  Obs.Metrics.enable ();
  Obs.Metrics.reset ();
  Fun.protect ~finally:Obs.Metrics.disable f

let with_temp_wal f =
  let path = Filename.temp_file "rumor-wal" ".jsonl" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; Wal.quarantine_path path ])
    (fun () -> f path)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_file "rumor-campaign" "" in
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

let sample_record i =
  Obs.Json.Obj
    [ ("i", Obs.Json.Int i); ("tag", Obs.Json.String "sample record") ]

(* --- CRC32 --- *)

let test_crc32_vectors () =
  (* The CRC-32/ISO-HDLC check value, and to_hex/of_hex round trips. *)
  check bool "check value" true
    (Crc32.digest "123456789" = 0xCBF43926l);
  check bool "empty digest" true (Crc32.digest "" = 0l);
  check bool "hex round trip" true
    (Crc32.of_hex (Crc32.to_hex 0xCBF43926l) = Some 0xCBF43926l);
  check bool "hex of zero" true (Crc32.to_hex 0l = "00000000");
  check bool "bad hex rejected" true (Crc32.of_hex "xyz" = None);
  check bool "short hex rejected" true (Crc32.of_hex "cbf439" = None)

(* --- WAL --- *)

let test_wal_roundtrip () =
  with_temp_wal (fun path ->
      let w = Wal.open_ ~fsync:false path in
      check bool "fresh log" true (not (Wal.recovery w).Wal.existed);
      for i = 0 to 2 do
        Wal.append w (sample_record i)
      done;
      Wal.close w;
      let r = Wal.read path in
      check int "three records read back" 3 (List.length r.Wal.records);
      check bool "records identical" true
        (r.Wal.records = [ sample_record 0; sample_record 1; sample_record 2 ]);
      check int "nothing corrupt" 0 r.Wal.corrupt_records;
      (* Reopening recovers the same records and appends after them. *)
      let w2 = Wal.open_ ~fsync:false path in
      check bool "reopen sees history" true
        ((Wal.recovery w2).Wal.records = r.Wal.records);
      Wal.append w2 (sample_record 3);
      Wal.close w2;
      check int "append after reopen" 4
        (List.length (Wal.read path).Wal.records);
      (* A rewrite of the same records is the same bytes as the appends. *)
      let copy = path ^ ".copy" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove copy with Sys_error _ -> ())
        (fun () ->
          Wal.rewrite copy (List.init 4 sample_record);
          check bool "rewrite = appends, byte for byte" true
            (read_file copy = read_file path)))

let test_wal_truncated_tail () =
  with_metrics (fun () ->
      with_temp_wal (fun path ->
          let w = Wal.open_ ~fsync:false path in
          for i = 0 to 2 do
            Wal.append w (sample_record i)
          done;
          Wal.close w;
          (* Tear the final record mid-line, as a crash during a write
             would. *)
          let content = read_file path in
          write_file path (String.sub content 0 (String.length content - 9));
          let w2 = Wal.open_ ~fsync:false path in
          let r = Wal.recovery w2 in
          Wal.close w2;
          check int "two records survive" 2 (List.length r.Wal.records);
          check int "one quarantined" 1 r.Wal.corrupt_records;
          check bool "tail reported torn" true r.Wal.truncated_tail;
          check int "harness.wal_corrupt_records" 1
            (counter_value "harness.wal_corrupt_records");
          check bool "fragment quarantined, not dropped" true
            (Sys.file_exists (Wal.quarantine_path path));
          (* Recovery compacted the log: a second open is clean. *)
          let r2 = Wal.read path in
          check int "clean after compaction" 0 r2.Wal.corrupt_records;
          check int "survivors intact" 2 (List.length r2.Wal.records)))

let test_wal_lost_newline_keeps_record () =
  (* Only the terminating newline was lost: the record still verifies
     and must be kept, and the compaction must re-terminate it so the
     next append starts on a fresh line. *)
  with_temp_wal (fun path ->
      let w = Wal.open_ ~fsync:false path in
      for i = 0 to 2 do
        Wal.append w (sample_record i)
      done;
      Wal.close w;
      let content = read_file path in
      write_file path (String.sub content 0 (String.length content - 1));
      let w2 = Wal.open_ ~fsync:false path in
      check int "all three records kept" 3
        (List.length (Wal.recovery w2).Wal.records);
      check bool "not counted corrupt" true
        ((Wal.recovery w2).Wal.corrupt_records = 0);
      Wal.append w2 (sample_record 3);
      Wal.close w2;
      check int "append lands on its own line" 4
        (List.length (Wal.read path).Wal.records))

let test_wal_bit_flip () =
  with_metrics (fun () ->
      with_temp_wal (fun path ->
          let w = Wal.open_ ~fsync:false path in
          for i = 0 to 2 do
            Wal.append w (sample_record i)
          done;
          Wal.close w;
          (* Flip one payload byte of the middle record: the line still
             parses as JSON but its CRC no longer verifies. *)
          let lines = String.split_on_char '\n' (read_file path) in
          let flipped =
            List.mapi
              (fun i line ->
                if i = 2 then
                  String.map (fun c -> if c = '1' then '7' else c) line
                else line)
              lines
          in
          write_file path (String.concat "\n" flipped);
          let w2 = Wal.open_ ~fsync:false path in
          let r = Wal.recovery w2 in
          Wal.close w2;
          check int "two records survive the flip" 2
            (List.length r.Wal.records);
          check int "flipped record quarantined" 1 r.Wal.corrupt_records;
          check bool "not a torn tail" true (not r.Wal.truncated_tail);
          check int "harness.wal_corrupt_records" 1
            (counter_value "harness.wal_corrupt_records");
          check bool "quarantine holds the bad line" true
            (contains ~sub:"\"7\"" (read_file (Wal.quarantine_path path))
            || String.length (read_file (Wal.quarantine_path path)) > 0)))

let test_wal_bad_magic () =
  with_temp_wal (fun path ->
      write_file path "not-a-wal\n{\"crc\":\"00000000\",\"rec\":1}\n";
      (match Wal.read path with
      | _ -> Alcotest.fail "expected Bad_magic"
      | exception Wal.Bad_magic { found; _ } ->
        check bool "reports the found header" true (found = "not-a-wal"));
      match Wal.open_ ~fsync:false path with
      | _ -> Alcotest.fail "expected Bad_magic on open"
      | exception Wal.Bad_magic _ -> ())

let test_wal_missing_file_reads_empty () =
  with_temp_wal (fun path ->
      let r = Wal.read path in
      check bool "missing file is an empty recovery" true
        ((not r.Wal.existed) && r.Wal.records = [] && r.Wal.corrupt_records = 0))

(* --- Deadlines: the path of [rumor campaign --deadline] --- *)

let test_deadline_censors_and_counts () =
  with_metrics (fun () ->
      let net = Dynet.of_static (Gen.clique 64) in
      let sweep =
        Run.async_spread_sweep ~jobs:1 ~reps:4 ~deadline_s:1e-9
          (Rng.create 43) net
      in
      let finished, censored, failed = Run.sweep_counts sweep in
      check int "nothing finishes under an expired deadline" 0 finished;
      check int "every replicate censored" 4 censored;
      check int "no failures" 0 failed;
      check bool "all outcomes Censored" true
        (Array.for_all
           (function Run.Censored _ -> true | _ -> false)
           sweep.Run.outcomes);
      check int "harness.deadline_censored once per replicate" 4
        (counter_value "harness.deadline_censored");
      check int "censored replicates have no usable times" 0
        (Array.length (Run.usable_times sweep)))

(* --- Campaign --- *)

let test_classification () =
  check bool "Sys_error is transient" true
    (Campaign.default_classify (Sys_error "x") = Campaign.Transient);
  check bool "Out_of_memory is transient" true
    (Campaign.default_classify Out_of_memory = Campaign.Transient);
  check bool "Failure is poison" true
    (Campaign.default_classify (Failure "x") = Campaign.Poison);
  check bool "injected failures are poison" true
    (Campaign.default_classify (Inject.Injected_failure 0) = Campaign.Poison)

let quick_config ~dir =
  { (Campaign.default_config ~dir) with Campaign.fsync = false }

let test_campaign_done_and_cached () =
  with_temp_dir (fun dir ->
      let runs = Array.make 2 0 in
      let tasks =
        [
          { Campaign.id = "T1"; run = (fun () -> runs.(0) <- runs.(0) + 1) };
          { Campaign.id = "T2"; run = (fun () -> runs.(1) <- runs.(1) + 1) };
        ]
      in
      let cancel = Pool.token () in
      let s = Campaign.run ~cancel (quick_config ~dir) tasks in
      check bool "both done" true
        (List.for_all
           (fun (_, o) -> match o with Campaign.Done _ -> true | _ -> false)
           s.Campaign.outcomes);
      check bool "not resumed" true (not s.Campaign.resumed);
      check int "exit 0" 0 (Campaign.exit_code s);
      let manifest = read_file (Campaign.manifest_path (quick_config ~dir)) in
      check bool "manifest says resumed: false" true
        (contains ~sub:"\"resumed\": false" manifest);
      (* provenance rides along: argv is always recorded, as a list *)
      (match Obs.Json.member "argv" (Obs.Json.parse_exn manifest) with
      | Some (Obs.Json.List (Obs.Json.String _ :: _)) -> ()
      | _ -> Alcotest.fail "manifest missing argv provenance");
      (* Second run with --resume: everything journaled-done is
         skipped, nothing re-executes. *)
      let s2 =
        Campaign.run ~cancel
          { (quick_config ~dir) with Campaign.resume = true }
          tasks
      in
      check bool "both cached" true
        (List.for_all
           (fun (_, o) -> o = Campaign.Cached)
           s2.Campaign.outcomes);
      check bool "resumed" true s2.Campaign.resumed;
      check bool "tasks did not re-run" true (runs = [| 1; 1 |]);
      let manifest = read_file (Campaign.manifest_path (quick_config ~dir)) in
      check bool "manifest says resumed: true" true
        (contains ~sub:"\"resumed\": true" manifest))

let test_campaign_interrupt_and_resume () =
  with_temp_dir (fun dir ->
      let cancel = Pool.token () in
      let runs = Array.make 3 0 in
      let tasks =
        [
          { Campaign.id = "T1"; run = (fun () -> runs.(0) <- runs.(0) + 1) };
          {
            Campaign.id = "T2";
            run =
              (fun () ->
                runs.(1) <- runs.(1) + 1;
                (* SIGTERM lands while T2 runs: the handler cancels the
                   token, pools drain, the loop observes it after the
                   task body returns. *)
                Pool.cancel cancel);
          };
          { Campaign.id = "T3"; run = (fun () -> runs.(2) <- runs.(2) + 1) };
        ]
      in
      let s = Campaign.run ~cancel (quick_config ~dir) tasks in
      check bool "T1 done" true
        (match List.assoc "T1" s.Campaign.outcomes with
        | Campaign.Done _ -> true
        | _ -> false);
      check bool "T2 interrupted" true
        (List.assoc "T2" s.Campaign.outcomes = Campaign.Interrupted);
      check bool "T3 not run" true
        (List.assoc "T3" s.Campaign.outcomes = Campaign.Not_run);
      check bool "summary interrupted" true s.Campaign.interrupted;
      check int "interruption is exit 0" 0 (Campaign.exit_code s);
      check bool "T3 never started" true (runs.(2) = 0);
      (* Resume: T1 skips, T2 re-runs from scratch, T3 runs. *)
      let cancel2 = Pool.token () in
      let s2 =
        Campaign.run ~cancel:cancel2
          { (quick_config ~dir) with Campaign.resume = true }
          tasks
      in
      check bool "T1 cached on resume" true
        (List.assoc "T1" s2.Campaign.outcomes = Campaign.Cached);
      check bool "T2 done on resume" true
        (match List.assoc "T2" s2.Campaign.outcomes with
        | Campaign.Done _ -> true
        | _ -> false);
      check bool "T3 done on resume" true
        (match List.assoc "T3" s2.Campaign.outcomes with
        | Campaign.Done _ -> true
        | _ -> false);
      check bool "resume flagged" true s2.Campaign.resumed;
      check bool "T1 ran exactly once across both runs" true (runs.(0) = 1))

let test_campaign_retry_and_quarantine () =
  with_metrics (fun () ->
      with_temp_dir (fun dir ->
          let attempts = ref 0 in
          let tasks =
            [
              {
                Campaign.id = "FLAKY";
                run =
                  (fun () ->
                    incr attempts;
                    if !attempts = 1 then
                      raise (Sys_error "transient I/O flake"));
              };
              { Campaign.id = "POISON"; run = (fun () -> failwith "bug") };
              { Campaign.id = "OK"; run = (fun () -> ()) };
            ]
          in
          let cancel = Pool.token () in
          let config =
            { (quick_config ~dir) with Campaign.retries = 1; backoff_s = 0. }
          in
          let s = Campaign.run ~cancel config tasks in
          check bool "flaky task recovered" true
            (match List.assoc "FLAKY" s.Campaign.outcomes with
            | Campaign.Done _ -> true
            | _ -> false);
          check int "one retry recorded" 1 s.Campaign.retries;
          (match List.assoc "POISON" s.Campaign.outcomes with
          | Campaign.Quarantined msg ->
            check bool "quarantine message" true (contains ~sub:"bug" msg)
          | _ -> Alcotest.fail "expected Quarantined");
          check bool "later tasks still run" true
            (match List.assoc "OK" s.Campaign.outcomes with
            | Campaign.Done _ -> true
            | _ -> false);
          check int "quarantine is exit 1" 1 (Campaign.exit_code s);
          let manifest = read_file (Campaign.manifest_path config) in
          check bool "manifest records the quarantine" true
            (contains ~sub:"\"quarantined\": 1" manifest)))

let test_campaign_fail_budget_aborts () =
  with_temp_dir (fun dir ->
      let ran_good = ref false in
      let tasks =
        [
          { Campaign.id = "BAD1"; run = (fun () -> failwith "bug 1") };
          { Campaign.id = "BAD2"; run = (fun () -> failwith "bug 2") };
          { Campaign.id = "GOOD"; run = (fun () -> ran_good := true) };
        ]
      in
      let cancel = Pool.token () in
      let config =
        { (quick_config ~dir) with Campaign.fail_budget = 0.3; retries = 0 }
      in
      let s = Campaign.run ~cancel config tasks in
      check bool "aborted" true s.Campaign.aborted;
      check bool "BAD2 not run after the gate" true
        (List.assoc "BAD2" s.Campaign.outcomes = Campaign.Not_run);
      check bool "GOOD not run after the gate" true
        ((not !ran_good)
        && List.assoc "GOOD" s.Campaign.outcomes = Campaign.Not_run);
      check int "abort is exit 1" 1 (Campaign.exit_code s))

let test_campaign_recovers_corrupt_journal () =
  with_metrics (fun () ->
      with_temp_dir (fun dir ->
          let config = { (quick_config ~dir) with Campaign.resume = true } in
          (* A journal with a good record and a torn one, as a crash
             mid-append would leave. *)
          let w = Wal.open_ ~fsync:false (Campaign.wal_file config.Campaign.dir) in
          Wal.append w (sample_record 0);
          Wal.close w;
          let content = read_file (Campaign.wal_file config.Campaign.dir) in
          write_file (Campaign.wal_file config.Campaign.dir) (content ^ "{\"crc\":\"dead");
          let s =
            Campaign.run ~cancel:(Pool.token ()) config
              [ { Campaign.id = "T1"; run = (fun () -> ()) } ]
          in
          check int "torn record surfaced in the summary" 1
            s.Campaign.wal_corrupt_records;
          check bool "counter nonzero" true
            (counter_value "harness.wal_corrupt_records" > 0);
          check bool "manifest reports it" true
            (contains ~sub:"\"wal_corrupt_records\": 1"
               (read_file (Campaign.manifest_path config)))))

let () =
  Alcotest.run "harness"
    [
      ( "crc32",
        [ Alcotest.test_case "vectors and hex" `Quick test_crc32_vectors ] );
      ( "wal",
        [
          Alcotest.test_case "append/read round trip" `Quick
            test_wal_roundtrip;
          Alcotest.test_case "truncated tail quarantined" `Quick
            test_wal_truncated_tail;
          Alcotest.test_case "lost newline keeps the record" `Quick
            test_wal_lost_newline_keeps_record;
          Alcotest.test_case "bit flip quarantined" `Quick test_wal_bit_flip;
          Alcotest.test_case "bad magic refused" `Quick test_wal_bad_magic;
          Alcotest.test_case "missing file reads empty" `Quick
            test_wal_missing_file_reads_empty;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "sweep censoring" `Quick
            test_deadline_censors_and_counts;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "failure classification" `Quick
            test_classification;
          Alcotest.test_case "done and cached" `Quick
            test_campaign_done_and_cached;
          Alcotest.test_case "interrupt and resume" `Quick
            test_campaign_interrupt_and_resume;
          Alcotest.test_case "retry and quarantine" `Quick
            test_campaign_retry_and_quarantine;
          Alcotest.test_case "failure budget aborts" `Quick
            test_campaign_fail_budget_aborts;
          Alcotest.test_case "corrupt journal recovery" `Quick
            test_campaign_recovers_corrupt_journal;
        ] );
    ]
