(* Serve layer: query codec + fingerprints, the WAL-journaled LRU
   store, and the live daemon end to end — cache transparency
   (cold/warm/coalesced bit-identical to the offline sweep), streamed
   partials, overload shedding, stalled-connection drops, both wire
   framings, and WAL-backed restart. *)

open Rumor_core.Rumor

module Query = Serve.Query
module Store = Serve.Store
module Server = Serve.Server

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let str = Alcotest.string

let tmpdir () =
  let d = Filename.temp_file "rumor-test-serve" "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let q32 ?(reps = 4) ?(seed = 2020) () =
  { (Query.default ~family:"clique" ~n:32) with Query.reps; seed }

(* --- query codec ------------------------------------------------- *)

let test_query_roundtrip () =
  let q =
    {
      (Query.default ~family:"er" ~n:64) with
      Query.reps = 12;
      loss = 0.1;
      crash = 0.01;
      recover = 0.2;
      slow_frac = 0.25;
      part_from = 3;
      part_until = 9;
      points = [ 0.25; 0.5; 0.75 ];
      max_events = Some 100_000;
      engine = Run.Tick;
      protocol = Protocol.Push;
    }
  in
  match Query.of_json (Query.to_json q) with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok q' ->
    check bool "round trip is identity" true (q = q');
    check str "fingerprint stable" (Query.key q) (Query.key q')

let test_query_defaults_and_unknown_fields () =
  let j =
    Obs.Json.parse_exn
      {|{"op":"query","stream":true,"family":"Clique","n":32,"ignored":7}|}
  in
  match Query.of_json j with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok q ->
    check str "family lower-cased" "clique" q.Query.family;
    check int "default reps" 30 q.Query.reps;
    (* op/stream/unknown fields must not leak into the fingerprint *)
    let bare =
      Query.of_json (Obs.Json.parse_exn {|{"family":"clique","n":32}|})
      |> Result.get_ok
    in
    check str "wire-only fields don't change the key" (Query.key bare)
      (Query.key q)

let test_query_fingerprint_sensitivity () =
  let base = q32 () in
  let keys =
    List.map Query.key
      [
        base;
        { base with Query.n = 33 };
        { base with Query.seed = 2021 };
        { base with Query.reps = 5 };
        { base with Query.loss = 0.05 };
        { base with Query.points = [ 0.5 ] };
        { base with Query.protocol = Protocol.Push };
      ]
  in
  check int "all knobs distinguish" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_query_validation () =
  let bad j =
    match Query.of_json (Obs.Json.parse_exn j) with
    | Error _ -> true
    | Ok _ -> false
  in
  check bool "unknown family" true (bad {|{"family":"torus","n":32}|});
  check bool "n too small" true (bad {|{"family":"clique","n":1}|});
  check bool "bad reps" true (bad {|{"family":"clique","n":32,"reps":0}|});
  check bool "loss = 1" true (bad {|{"family":"clique","n":32,"loss":1}|});
  check bool "bad point" true
    (bad {|{"family":"clique","n":32,"points":[1.5]}|});
  check bool "missing n" true (bad {|{"family":"clique"}|})

(* --- store ------------------------------------------------------- *)

let entry ?(reps = 4) q quantiles =
  {
    Store.query = q;
    quantiles;
    reps;
    finished = reps;
    censored = 0;
    failed = 0;
    wall_s = 0.125;
  }

let test_store_persistence () =
  let dir = tmpdir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let q = q32 () in
      let fp = Query.key q in
      (* awkward constants: exact bit patterns must survive reopen *)
      let qs = [| 4.66353777474752107; 0.1 +. 0.2; 1e-300 |] in
      let s = Store.open_ ~fsync:false ~dir () in
      Store.add s fp (entry q qs);
      (match Store.find s fp with
      | None -> Alcotest.fail "find after add"
      | Some e -> check bool "same quantiles" true (e.Store.quantiles = qs));
      Store.close s;
      let s = Store.open_ ~fsync:false ~dir () in
      (match Store.find s fp with
      | None -> Alcotest.fail "find after reopen"
      | Some e ->
        check bool "bit-identical after reopen" true (e.Store.quantiles = qs);
        check bool "query survives" true (e.Store.query = q));
      check int "size" 1 (Store.size s);
      Store.close s)

let test_store_lru_eviction () =
  let dir = tmpdir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let s = Store.open_ ~fsync:false ~cap:3 ~dir () in
      let queries = List.init 4 (fun i -> q32 ~seed:(3000 + i) ()) in
      let keys = List.map Query.key queries in
      List.iteri
        (fun i q ->
          (* touch key 0 before the overflowing insert: key 1 is LRU *)
          if i = 3 then ignore (Store.find s (List.nth keys 0));
          Store.add s (Query.key q) (entry q [| float_of_int i |]))
        queries;
      check int "capacity respected" 3 (Store.size s);
      check int "one eviction" 1 (Store.evictions s);
      check bool "LRU entry evicted" true
        (Store.find s (List.nth keys 1) = None);
      check bool "touched entry kept" true
        (Store.find s (List.nth keys 0) <> None);
      Store.close s;
      (* the journal replays to the same live set *)
      let s = Store.open_ ~fsync:false ~cap:3 ~dir () in
      check int "size after reopen" 3 (Store.size s);
      check bool "evicted stays evicted" true
        (Store.find s (List.nth keys 1) = None);
      Store.close s)

let test_store_compaction () =
  let dir = tmpdir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let s = Store.open_ ~fsync:false ~cap:4 ~dir () in
      (* 100 inserts through a 4-entry cache: heavy eviction churn
         must trigger compaction rather than unbounded journal growth *)
      for i = 0 to 99 do
        let q = q32 ~seed:(5000 + i) () in
        Store.add s (Query.key q) (entry q [| float_of_int i |])
      done;
      Store.close s;
      let recovery = Wal.read (Filename.concat dir "results.wal") in
      check int "no corrupt records" 0 recovery.Wal.corrupt_records;
      check bool "journal compacted" true
        (List.length recovery.Wal.records < 60);
      let s = Store.open_ ~fsync:false ~cap:4 ~dir () in
      check int "live set intact" 4 (Store.size s);
      Store.close s)

(* --- live server -------------------------------------------------- *)

type client = { fd : Unix.file_descr; buf : Buffer.t }

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
  { fd; buf = Buffer.create 256 }

let send_line c s =
  let b = Bytes.of_string (s ^ "\n") in
  let len = Bytes.length b in
  let written = ref 0 in
  while !written < len do
    written := !written + Unix.write c.fd b !written (len - !written)
  done

let send_query c ?(stream = false) q =
  let j =
    match Query.to_json q with
    | Obs.Json.Obj fields ->
      Obs.Json.Obj
        (fields @ if stream then [ ("stream", Obs.Json.Bool true) ] else [])
    | j -> j
  in
  send_line c (Obs.Json.to_string j)

(* Blocking line read with a test deadline, so a server bug fails the
   test instead of hanging the suite. *)
let recv_line ?(timeout_s = 60.) c =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let chunk = Bytes.create 4096 in
  let rec go () =
    let s = Buffer.contents c.buf in
    match String.index_opt s '\n' with
    | Some i ->
      Buffer.clear c.buf;
      Buffer.add_string c.buf (String.sub s (i + 1) (String.length s - i - 1));
      String.sub s 0 i
    | None ->
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then Alcotest.fail "recv_line: timed out";
      (match Unix.select [ c.fd ] [] [] left with
      | [], _, _ -> ()
      | _ -> (
        match Unix.read c.fd chunk 0 (Bytes.length chunk) with
        | 0 -> Alcotest.fail "recv_line: connection closed"
        | n -> Buffer.add_subbytes c.buf chunk 0 n));
      go ()
  in
  go ()

let recv_json ?timeout_s c = Obs.Json.parse_exn (recv_line ?timeout_s c)

let jstr field j =
  match Option.bind (Obs.Json.member field j) Obs.Json.to_string_opt with
  | Some s -> s
  | None -> Alcotest.failf "missing string field %s" field

let jint field j =
  match Option.bind (Obs.Json.member field j) Obs.Json.to_int_opt with
  | Some i -> i
  | None -> Alcotest.failf "missing int field %s" field

let hex_quantiles j =
  match Obs.Json.member "quantiles_hex" j with
  | Some (Obs.Json.List l) -> List.filter_map Obs.Json.to_string_opt l
  | _ -> Alcotest.fail "missing quantiles_hex"

let with_server config f =
  let t = Server.create config in
  let domain = Domain.spawn (fun () -> Server.serve t) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Domain.join domain)
    (fun () -> f t (Server.port t))

let offline_hex q =
  let sweep = Query.sweep ~jobs:1 q in
  Array.to_list (Run.quantiles_of_sweep sweep q.Query.points)
  |> List.map (Printf.sprintf "%h")

let test_serve_cache_transparent () =
  let dir = tmpdir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      (* reps 10 over chunk 4: exercises multi-chunk checkpoint resume *)
      let q = q32 ~reps:10 () in
      let expected = offline_hex q in
      let config =
        { (Server.default_config ~dir) with Server.fsync = false; chunk = 4 }
      in
      let reopened =
        with_server config (fun _t port ->
            let c = connect port in
            send_query c q;
            let cold = recv_json c in
            check str "cold is a miss" "miss" (jstr "cache" cold);
            check bool "cold quantiles = offline sweep" true
              (hex_quantiles cold = expected);
            check int "all replicates finished" 10 (jint "finished" cold);
            send_query c q;
            let warm = recv_json c in
            check str "warm is a hit" "hit" (jstr "cache" warm);
            check bool "warm bit-identical" true
              (hex_quantiles warm = expected);
            Unix.close c.fd;
            ())
      in
      ignore reopened;
      (* a restarted server serves the same bits from its journal *)
      with_server config (fun _t port ->
          let c = connect port in
          send_query c q;
          let j = recv_json c in
          check str "hit after restart" "hit" (jstr "cache" j);
          check bool "restart bit-identical" true
            (hex_quantiles j = expected);
          Unix.close c.fd))

let test_serve_coalescing () =
  let dir = tmpdir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let q = q32 ~reps:4 ~seed:4242 () in
      let config =
        {
          (Server.default_config ~dir) with
          Server.fsync = false;
          throttle_s = 0.4;
        }
      in
      with_server config (fun t port ->
          let a = connect port in
          let b = connect port in
          send_query a q;
          Unix.sleepf 0.1;
          send_query b q;
          let ra = recv_json a in
          let rb = recv_json b in
          check str "first is the miss" "miss" (jstr "cache" ra);
          check str "second coalesced" "coalesced" (jstr "cache" rb);
          check bool "coalesced bit-identical" true
            (hex_quantiles ra = hex_quantiles rb);
          let c = Server.counters t in
          check int "one coalesced" 1 c.Server.coalesced;
          check int "one miss" 1 c.Server.misses;
          Unix.close a.fd;
          Unix.close b.fd))

let test_serve_overload_shed () =
  let dir = tmpdir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let config =
        {
          (Server.default_config ~dir) with
          Server.fsync = false;
          throttle_s = 1.0;
          queue_cap = 1;
        }
      in
      with_server config (fun t port ->
          let c = connect port in
          (* distinct queries so nothing coalesces; the first occupies
             the compute domain, the rest fill then overflow the queue *)
          for i = 0 to 3 do
            send_query c (q32 ~reps:4 ~seed:(6000 + i) ())
          done;
          (* sheds are answered immediately, before the computes finish *)
          let first = recv_json c in
          check str "immediate response is the shed" "overloaded"
            (jstr "k" first);
          check int "reported capacity" 1 (jint "capacity" first);
          check bool "queue at capacity" true (jint "queue" first >= 1);
          let shed = ref 1 in
          let results = ref 0 in
          while !shed + !results < 4 do
            let j = recv_json c in
            match jstr "k" j with
            | "overloaded" -> incr shed
            | "result" -> incr results
            | k -> Alcotest.failf "unexpected response %s" k
          done;
          check bool "at least one computed" true (!results >= 1);
          let counters = Server.counters t in
          check int "shed counter matches" !shed counters.Server.shed;
          Unix.close c.fd))

let test_serve_streaming_partials () =
  let dir = tmpdir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let q = q32 ~reps:6 ~seed:777 () in
      let config =
        {
          (Server.default_config ~dir) with
          Server.fsync = false;
          chunk = 2;
          throttle_s = 0.05;
        }
      in
      with_server config (fun _t port ->
          let c = connect port in
          send_query c ~stream:true q;
          let partials = ref 0 in
          let result = ref None in
          while !result = None do
            let j = recv_json c in
            match jstr "k" j with
            | "partial" ->
              check bool "partial is a strict prefix" true
                (jint "done" j < q.Query.reps);
              incr partials
            | "result" -> result := Some j
            | k -> Alcotest.failf "unexpected response %s" k
          done;
          check bool "streamed at least one partial" true (!partials >= 1);
          check str "terminal result is the miss" "miss"
            (jstr "cache" (Option.get !result));
          Unix.close c.fd))

let test_serve_binary_framing () =
  let dir = tmpdir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let q = q32 ~reps:4 ~seed:31337 () in
      let config =
        { (Server.default_config ~dir) with Server.fsync = false }
      in
      with_server config (fun _t port ->
          let c = connect port in
          let frame = Proto.frame (Query.to_json q) in
          ignore (Unix.write c.fd frame 0 (Bytes.length frame));
          let rdr = Proto.reader () in
          let j =
            match Proto.recv c.fd rdr with
            | Some j -> j
            | None -> Alcotest.fail "no framed response"
          in
          check str "framed result" "result" (jstr "k" j);
          check str "framed miss" "miss" (jstr "cache" j);
          check bool "framed = offline" true
            (hex_quantiles j = offline_hex q);
          Unix.close c.fd))

let test_serve_stalled_drop () =
  let dir = tmpdir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let config =
        {
          (Server.default_config ~dir) with
          Server.fsync = false;
          read_timeout_s = 0.3;
        }
      in
      with_server config (fun t port ->
          let half_open = connect port in
          (* two bytes of a binary length prefix, then silence *)
          ignore (Unix.write half_open.fd (Bytes.make 2 '\001') 0 2);
          Unix.sleepf 1.0;
          check int "stalled connection counted" 1
            (Server.counters t).Server.stalled_drops;
          (* the slot is actually gone: the server closed the socket *)
          check int "dropped at the server" 0
            (Unix.read half_open.fd (Bytes.create 8) 0 8);
          (* a healthy idle connection with a clean boundary survives *)
          let healthy = connect port in
          send_line healthy {|{"op":"ping"}|};
          ignore (recv_json healthy);
          Unix.sleepf 0.6;
          send_line healthy {|{"op":"stats"}|};
          let stats = recv_json healthy in
          check int "clean-boundary conn not dropped" 1
            (jint "stalled_drops" stats);
          Unix.close half_open.fd;
          Unix.close healthy.fd))

let test_serve_rejects_bad_queries () =
  let dir = tmpdir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let config =
        {
          (Server.default_config ~dir) with
          Server.fsync = false;
          max_reps = 8;
        }
      in
      with_server config (fun _t port ->
          let c = connect port in
          send_line c {|{"family":"torus","n":32}|};
          check str "unknown family" "error" (jstr "k" (recv_json c));
          send_line c {|not json|};
          check str "malformed json" "error" (jstr "k" (recv_json c));
          send_line c {|{"family":"clique","n":32,"reps":9}|};
          let j = recv_json c in
          check str "reps above server limit" "error" (jstr "k" j);
          Unix.close c.fd))

let counter_value name = Obs.Metrics.value (Obs.Metrics.counter name)

(* A checkpoint left by an earlier server (or an offline sweep) is
   loaded once for the whole chunked compute: exactly its 4 outcomes
   are hits, whatever the chunk count. *)
let test_serve_preseeded_checkpoint () =
  let dir = tmpdir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let q = q32 ~reps:10 ~seed:9090 () in
      let expected = offline_hex q in
      let cp_dir = Filename.concat dir "cp" in
      Unix.mkdir cp_dir 0o755;
      let cp = Filename.concat cp_dir (Query.key q ^ ".ckpt") in
      ignore (Query.sweep ~jobs:1 ~checkpoint:cp ~reps:4 q);
      let config =
        { (Server.default_config ~dir) with Server.fsync = false; chunk = 4 }
      in
      with_server config (fun _t port ->
          let hits0 = counter_value "run.sweep.checkpoint_hits" in
          let c = connect port in
          send_query c q;
          let j = recv_json c in
          check str "a miss" "miss" (jstr "cache" j);
          check bool "quantiles = offline sweep" true
            (hex_quantiles j = expected);
          check int "one load: the 4 cached outcomes hit once" 4
            (counter_value "run.sweep.checkpoint_hits" - hits0);
          check bool "checkpoint removed after Done" false
            (Sys.file_exists cp);
          Unix.close c.fd))

(* A served [ci_width] query stops where the offline adaptive sweep
   with the server's chunk stops, with the same bits. *)
let test_serve_adaptive_matches_offline () =
  let dir = tmpdir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let w = 0.3 in
      let q = { (q32 ~reps:64 ~seed:5150 ()) with Query.ci_width = Some w } in
      let chunk = 4 in
      let offline =
        Run.async_spread_sweep_adaptive ~jobs:1 ~horizon:q.Query.horizon
          ~engine:q.Query.engine ~protocol:q.Query.protocol
          ~rate:q.Query.rate ~faults:(Query.fault_plan q)
          ~config:
            (Adaptive.config ~level:q.Query.ci_level
               ~min_reps:(min 16 q.Query.reps) ~max_reps:q.Query.reps
               ~chunk:Query.ci_cadence (Adaptive.Abs w))
          (Rng.create q.Query.seed)
          (Family.build (Query.family_params q))
      in
      let expected =
        Array.to_list (Run.quantiles_of_sweep offline.Run.sweep q.Query.points)
        |> List.map (Printf.sprintf "%h")
      in
      let config =
        { (Server.default_config ~dir) with Server.fsync = false; chunk }
      in
      with_server config (fun _t port ->
          let c = connect port in
          send_query c q;
          let j = recv_json c in
          check str "a result" "result" (jstr "k" j);
          check int "same stopping point" offline.Run.consumed (jint "reps" j);
          check bool "converged before the budget" true
            (jint "reps" j < q.Query.reps);
          check bool "same quantile bits" true (hex_quantiles j = expected);
          Unix.close c.fd))

(* One key, one answer: a served [ci_width] result must not depend on
   the server's [chunk].  For every chunk and seed, the served
   stopping point and quantile bits equal one offline [Query.sweep]
   run without a chunk. *)
let test_serve_adaptive_ignores_chunk () =
  List.iter
    (fun seed ->
      let q = { (q32 ~reps:64 ~seed ()) with Query.ci_width = Some 0.3 } in
      let offline = Query.sweep ~jobs:1 q in
      let expected =
        Array.to_list (Run.quantiles_of_sweep offline q.Query.points)
        |> List.map (Printf.sprintf "%h")
      in
      List.iter
        (fun chunk ->
          let dir = tmpdir () in
          Fun.protect
            ~finally:(fun () -> rm_rf dir)
            (fun () ->
              let config =
                {
                  (Server.default_config ~dir) with
                  Server.fsync = false;
                  chunk;
                }
              in
              with_server config (fun _t port ->
                  let c = connect port in
                  send_query c q;
                  let j = recv_json c in
                  let what = Printf.sprintf "seed %d chunk %d" seed chunk in
                  check str (what ^ ": a result") "result" (jstr "k" j);
                  check int (what ^ ": same stopping point")
                    (Array.length offline.Run.outcomes) (jint "reps" j);
                  check bool (what ^ ": same quantile bits") true
                    (hex_quantiles j = expected);
                  Unix.close c.fd)))
        [ 1; 4; 8; 16; 32 ])
    [ 5150; 1 ]

(* The warm-cache gate: a cache hit must answer at least 100x faster
   than the cold compute of the same query (clique-256, 32 replicates),
   with the warm pass driven closed-loop by the load generator. *)
let test_serve_warm_hit_speedup () =
  let dir = tmpdir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let q = { (Query.default ~family:"clique" ~n:256) with Query.reps = 32 } in
      let config = { (Server.default_config ~dir) with Server.fsync = false } in
      with_server config (fun t port ->
          let c = connect port in
          let t0 = Obs.Clock.now_s () in
          send_query c q;
          let cold = recv_json c in
          let cold_s = Obs.Clock.now_s () -. t0 in
          Unix.close c.fd;
          check str "cold is a miss" "miss" (jstr "cache" cold);
          let warm =
            Serve.Loadgen.run
              {
                (Serve.Loadgen.default_config ~port ~queries:[ q ]) with
                Serve.Loadgen.duration_s = 0.5;
                concurrency = 2;
              }
          in
          let speedup = cold_s /. warm.Serve.Loadgen.p50_s in
          Printf.printf "cold %.4fs, hit p50 %.6fs: %.0fx over %d hits\n"
            cold_s warm.Serve.Loadgen.p50_s speedup warm.Serve.Loadgen.hits;
          check bool "at least 100 hits" true (warm.Serve.Loadgen.hits >= 100);
          check int "exactly one miss" 1 (Server.counters t).Server.misses;
          check bool "cold / hit p50 >= 100" true (speedup >= 100.)))

let () =
  Alcotest.run "serve"
    [
      ( "query",
        [
          Alcotest.test_case "round trip" `Quick test_query_roundtrip;
          Alcotest.test_case "defaults / wire-only fields" `Quick
            test_query_defaults_and_unknown_fields;
          Alcotest.test_case "fingerprint sensitivity" `Quick
            test_query_fingerprint_sensitivity;
          Alcotest.test_case "validation" `Quick test_query_validation;
        ] );
      ( "store",
        [
          Alcotest.test_case "persistence" `Quick test_store_persistence;
          Alcotest.test_case "lru eviction" `Quick test_store_lru_eviction;
          Alcotest.test_case "compaction" `Quick test_store_compaction;
        ] );
      ( "server",
        [
          Alcotest.test_case "cache transparency" `Quick
            test_serve_cache_transparent;
          Alcotest.test_case "coalescing" `Quick test_serve_coalescing;
          Alcotest.test_case "overload shed" `Quick test_serve_overload_shed;
          Alcotest.test_case "streaming partials" `Quick
            test_serve_streaming_partials;
          Alcotest.test_case "binary framing" `Quick
            test_serve_binary_framing;
          Alcotest.test_case "stalled drop" `Quick test_serve_stalled_drop;
          Alcotest.test_case "bad queries" `Quick
            test_serve_rejects_bad_queries;
          Alcotest.test_case "pre-seeded checkpoint loaded once" `Quick
            test_serve_preseeded_checkpoint;
          Alcotest.test_case "adaptive query = offline adaptive sweep" `Quick
            test_serve_adaptive_matches_offline;
          Alcotest.test_case "adaptive answer independent of server chunk"
            `Quick test_serve_adaptive_ignores_chunk;
          Alcotest.test_case "warm hit >= 100x cold" `Quick
            test_serve_warm_hit_speedup;
        ] );
    ]
