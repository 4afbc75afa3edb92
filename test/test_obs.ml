(* Observability subsystem (lib/obs): JSON codec round-trips, metric
   registry semantics, determinism of the counters under the
   domain-parallel runners, draws-parity with the subsystem on/off,
   sink artifacts, bench-report comparison, shared env parsing, and
   the per-step trace progress export. *)

open Rumor_core.Rumor

let check = Alcotest.check

let check_bool = check Alcotest.bool

let check_int = check Alcotest.int

let check_string = check Alcotest.string

let times_t = Alcotest.array (Alcotest.float 0.)

(* --- Json --- *)

let test_json_roundtrip () =
  let v =
    Obs.Json.Obj
      [
        ("null", Obs.Json.Null);
        ("bool", Obs.Json.Bool true);
        ("int", Obs.Json.Int (-42));
        ("float", Obs.Json.Float 1.5);
        ("tiny", Obs.Json.Float 1e-12);
        ("string", Obs.Json.String "with \"quotes\", \n and \t controls");
        ( "list",
          Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Obj []; Obs.Json.List [] ]
        );
      ]
  in
  let compact = Obs.Json.to_string v in
  check_string "compact round-trip" compact
    (Obs.Json.to_string (Obs.Json.parse_exn compact));
  let pretty = Obs.Json.to_string ~pretty:true v in
  check_string "pretty parses to the same value" compact
    (Obs.Json.to_string (Obs.Json.parse_exn pretty));
  (* Non-finite floats: NaN has no spelling (-> null); infinities
     round-trip through the overflowing literal. *)
  check_string "nan -> null" "null" (Obs.Json.to_string (Obs.Json.Float Float.nan));
  check_string "inf" "1e999" (Obs.Json.to_string (Obs.Json.Float Float.infinity));
  (match Obs.Json.parse_exn "1e999" with
  | Obs.Json.Float f -> check_bool "inf round-trip" true (f = Float.infinity)
  | _ -> Alcotest.fail "1e999 should parse as a float");
  (* Floats stay floats: a whole-number float keeps its ".0". *)
  check_string "float-ness preserved" "3.0"
    (Obs.Json.to_string (Obs.Json.Float 3.))

let test_json_errors () =
  let is_error s =
    match Obs.Json.parse s with Ok _ -> false | Error _ -> true
  in
  check_bool "unterminated obj" true (is_error "{");
  check_bool "trailing garbage" true (is_error "1 2");
  check_bool "bare word" true (is_error "nope");
  check_bool "trailing comma" true (is_error "[1,]");
  (match Obs.Json.parse_exn "\"\\u0041\\u00e9\"" with
  | Obs.Json.String s -> check_string "unicode escapes" "A\xc3\xa9" s
  | _ -> Alcotest.fail "expected a string");
  match Obs.Json.parse_exn "{\"a\": [1, 2.5]}" with
  | v ->
    check_int "member/int" 1
      (match Obs.Json.member "a" v with
      | Some (Obs.Json.List (x :: _)) ->
        Option.value ~default:(-1) (Obs.Json.to_int_opt x)
      | _ -> -1)

(* --- Metrics --- *)

let test_metrics_gating () =
  Obs.Metrics.disable ();
  Obs.Metrics.reset ();
  let c = Obs.Metrics.counter "test.gating" in
  Obs.Metrics.incr c;
  check_int "disabled incr is a no-op" 0 (Obs.Metrics.value c);
  Obs.Metrics.enable ();
  Obs.Metrics.incr c;
  Obs.Metrics.add c 5;
  check_int "enabled counts" 6 (Obs.Metrics.value c);
  Obs.Metrics.disable ();
  Obs.Metrics.incr c;
  check_int "re-disabled" 6 (Obs.Metrics.value c);
  (* Registration is idempotent: same handle, same cell. *)
  let c' = Obs.Metrics.counter "test.gating" in
  check_int "idempotent registration" 6 (Obs.Metrics.value c')

let test_metrics_histogram () =
  Obs.Metrics.reset ();
  Obs.Metrics.enable ();
  let h = Obs.Metrics.histogram ~buckets:[| 1.; 2.; 4. |] "test.hist" in
  List.iter (Obs.Metrics.observe h) [ 0.5; 2.0; 100. ];
  let snap = Obs.Metrics.snapshot () in
  let hist =
    match Obs.Json.(member "histograms" snap) with
    | Some hs -> Obs.Json.member "test.hist" hs
    | None -> None
  in
  (match hist with
  | Some hj ->
    check_int "count" 3
      (Option.value ~default:(-1)
         (Option.bind (Obs.Json.member "count" hj) Obs.Json.to_int_opt));
    let bucket_counts =
      match Option.bind (Obs.Json.member "buckets" hj) Obs.Json.to_list_opt with
      | Some bs ->
        List.map
          (fun b ->
            Option.value ~default:(-1)
              (Option.bind (Obs.Json.member "count" b) Obs.Json.to_int_opt))
          bs
      | None -> []
    in
    (* 0.5 -> le 1; 2.0 lands exactly on le 2; 100 -> overflow. *)
    check (Alcotest.list Alcotest.int) "bucket counts" [ 1; 1; 0; 1 ]
      bucket_counts
  | None -> Alcotest.fail "histogram missing from snapshot");
  Obs.Metrics.disable ();
  Alcotest.check_raises "non-increasing buckets rejected"
    (Invalid_argument
       "Metrics.histogram: bucket bounds must be strictly increasing")
    (fun () -> ignore (Obs.Metrics.histogram ~buckets:[| 2.; 1. |] "test.bad"))

(* --- determinism & parity under the Monte-Carlo runners --- *)

let test_run_determinism () =
  let net = Dynet.of_static ~name:"clique" (Gen.clique 48) in
  (* Draws-parity: the same seed yields the same sample with the
     subsystem off and on — recording never touches an RNG. *)
  Obs.Metrics.disable ();
  let off = Run.async_spread_times ~jobs:2 ~reps:16 (Rng.create 7) net in
  Obs.Metrics.enable ();
  Obs.Metrics.reset ();
  let one = Run.async_spread_times ~jobs:1 ~reps:16 (Rng.create 7) net in
  let snap1 = Obs.Json.to_string (Obs.Metrics.snapshot ()) in
  Obs.Metrics.reset ();
  let four = Run.async_spread_times ~jobs:4 ~reps:16 (Rng.create 7) net in
  let snap4 = Obs.Json.to_string (Obs.Metrics.snapshot ()) in
  Obs.Metrics.disable ();
  check times_t "times identical with metrics off vs on" off.Run.times
    one.Run.times;
  check times_t "times identical on 1 vs 4 domains" one.Run.times four.Run.times;
  check_string "metric snapshot identical on 1 vs 4 domains" snap1 snap4;
  check_bool "engines actually counted" true
    (String.length snap1 > 0
    && Obs.Metrics.value (Obs.Metrics.counter "async_cut.runs") = 16)

(* --- Span --- *)

let test_span () =
  (* What the manifests record for a span: its count and total. *)
  let recorded name =
    let field f conv =
      Option.bind (Obs.Json.member name (Obs.Span.snapshot ())) (fun j ->
          Option.bind (Obs.Json.member f j) conv)
    in
    ( Option.value ~default:(-1) (field "count" Obs.Json.to_int_opt),
      Option.value ~default:Float.nan (field "total_s" Obs.Json.to_float_opt) )
  in
  Obs.Metrics.enable ();
  Obs.Span.reset ();
  let s = Obs.Span.create "test.span" in
  check_int "span thunk result" 41 (Obs.Span.time s (fun () -> 41));
  (* Test pacing: a timed thunk that takes at least 1 ms. *)
  Obs.Span.time s (fun () -> Unix.sleepf 0.001);
  let count, total = recorded "test.span" in
  check_int "span count" 2 count;
  check_bool "span total positive" true (total >= 0.001);
  Obs.Metrics.disable ();
  ignore (Obs.Span.time s (fun () -> 0));
  check_int "disabled span not accumulated" 2 (fst (recorded "test.span"))

(* --- Sink + Run_manifest --- *)

let with_temp_dir f =
  let dir = Filename.temp_file "rumor-obs-test" "" in
  Sys.remove dir;
  Obs.Sink.set_dir (Some dir);
  Fun.protect
    ~finally:(fun () ->
      Obs.Sink.set_dir None;
      if Sys.file_exists dir then
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
      if Sys.file_exists dir then Sys.rmdir dir)
    (fun () -> f dir)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let test_sink_jsonl () =
  (* No directory configured: every writer is a silent no-op. *)
  Obs.Sink.set_dir None;
  check_bool "inactive without a dir" false (Obs.Sink.active ());
  Obs.Sink.append_jsonl "nowhere.jsonl" (Obs.Json.Int 1);
  with_temp_dir (fun dir ->
      check_bool "active" true (Obs.Sink.active ());
      Obs.Sink.append_jsonl "rows.jsonl"
        (Obs.Json.Obj [ ("i", Obs.Json.Int 1) ]);
      Obs.Sink.append_jsonl "rows.jsonl"
        (Obs.Json.Obj [ ("i", Obs.Json.Int 2); ("s", Obs.Json.String "x") ]);
      let lines = read_lines (Filename.concat dir "rows.jsonl") in
      check_int "two rows" 2 (List.length lines);
      let parsed = List.map Obs.Json.parse_exn lines in
      check (Alcotest.list Alcotest.int) "row payloads" [ 1; 2 ]
        (List.map
           (fun v ->
             Option.value ~default:(-1)
               (Option.bind (Obs.Json.member "i" v) Obs.Json.to_int_opt))
           parsed);
      (* CSV quoting. *)
      Obs.Sink.write_csv "t.csv" ~header:[ "a"; "b" ]
        [ [ "plain"; "with,comma" ]; [ "with\"quote"; "x" ] ];
      let csv = read_lines (Filename.concat dir "t.csv") in
      check_string "csv header" "a,b" (List.nth csv 0);
      check_string "csv comma quoted" "plain,\"with,comma\"" (List.nth csv 1);
      check_string "csv quote doubled" "\"with\"\"quote\",x" (List.nth csv 2))

let test_run_manifest () =
  with_temp_dir (fun dir ->
      Obs.Run_manifest.write ~with_registry:false
        (Obs.Run_manifest.make ~kind:"test" ~id:"t1" ~seed:5 ~engine:"cut"
           ~network:"clique" ~n:48 ~reps:3 ~wall_s:0.25 ());
      let v =
        Obs.Json.parse_exn
          (String.concat "\n" (read_lines (Filename.concat dir "t1.manifest.json")))
      in
      let str k =
        Option.value ~default:"?"
          (Option.bind (Obs.Json.member k v) Obs.Json.to_string_opt)
      in
      let int k =
        Option.value ~default:(-1)
          (Option.bind (Obs.Json.member k v) Obs.Json.to_int_opt)
      in
      check_string "schema" "rumor-manifest/1" (str "schema");
      check_string "kind" "test" (str "kind");
      check_string "engine" "cut" (str "engine");
      check_int "seed" 5 (int "seed");
      check_int "n" 48 (int "n");
      check_bool "registry suppressed" true (Obs.Json.member "metrics" v = None))

(* --- Env --- *)

let test_env () =
  Unix.putenv "RUMOR_OBS_TEST_I" "17";
  check_int "int" 17 (Env.int ~default:3 "RUMOR_OBS_TEST_I");
  Unix.putenv "RUMOR_OBS_TEST_I" "202O";
  check_int "typo'd int -> default" 3 (Env.int ~default:3 "RUMOR_OBS_TEST_I")

(* --- Trace.per_step_progress --- *)

let test_per_step_progress () =
  let deltas = Alcotest.array Alcotest.int in
  check deltas "bucketed by floor of event time" [| 2; 1; 6 |]
    (Trace.per_step_progress [| (0., 1); (0.5, 3); (1.2, 4); (2.9, 10) |]);
  (* A boundary event at t = s belongs to step s (graph G(s) is live
     from time s onwards). *)
  check deltas "integer boundary" [| 1; 2 |]
    (Trace.per_step_progress [| (0., 1); (0.5, 2); (1.0, 4) |]);
  check deltas "source only" [| 0 |] (Trace.per_step_progress [| (0., 1) |]);
  check deltas "empty" [||] (Trace.per_step_progress [||]);
  (* Consistency with a real engine trace: deltas sum to the informed
     count minus the source. *)
  let net = Dynet.of_static (Gen.clique 32) in
  let r = Async_cut.run ~record_trace:true (Rng.create 3) net ~source:0 in
  let p = Trace.per_step_progress r.Async_result.trace in
  check_int "deltas account for everyone but the source" 31
    (Array.fold_left ( + ) 0 p)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "errors" `Quick test_json_errors;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "gating" `Quick test_metrics_gating;
          Alcotest.test_case "histogram" `Quick test_metrics_histogram;
          Alcotest.test_case "determinism" `Quick test_run_determinism;
          Alcotest.test_case "span" `Quick test_span;
        ] );
      ( "sink",
        [
          Alcotest.test_case "jsonl+csv" `Quick test_sink_jsonl;
          Alcotest.test_case "manifest" `Quick test_run_manifest;
        ] );
      ("env", [ Alcotest.test_case "parsing" `Quick test_env ]);
      ( "trace",
        [ Alcotest.test_case "per-step progress" `Quick test_per_step_progress ]
      );
    ]
