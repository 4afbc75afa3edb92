module Json = Rumor_obs.Json
module Clock = Rumor_obs.Clock
module Metrics = Rumor_obs.Metrics
module Proto = Rumor_harness.Proto
module Wal = Rumor_harness.Wal
module Provenance = Rumor_harness.Provenance
module Run = Rumor_sim.Run
module Adaptive = Rumor_stats.Adaptive
module Stream = Rumor_stats.Stream

type config = {
  dir : string;
  host : string;
  port : int;
  queue_cap : int;
  cache_cap : int;
  jobs : int option;
  chunk : int;
  read_timeout_s : float;
  throttle_s : float;
  max_n : int;
  max_reps : int;
  fsync : bool;
}

let default_config ~dir =
  {
    dir;
    host = "127.0.0.1";
    port = 0;
    queue_cap = 64;
    cache_cap = 512;
    jobs = None;
    chunk = 8;
    read_timeout_s = 30.;
    throttle_s = 0.;
    max_n = 65536;
    max_reps = 10_000;
    fsync = true;
  }

type counters = {
  requests : int;
  hits : int;
  misses : int;
  coalesced : int;
  shed : int;
  stalled_drops : int;
  errors : int;
}

(* --- connections -------------------------------------------------- *)

type mode = Unknown | Jsonl | Binary

type conn = {
  fd : Unix.file_descr;
  mutable mode : mode;
  rdr : Proto.reader;  (* binary reassembly *)
  line : Buffer.t;  (* jsonl reassembly *)
  out : Buffer.t;
  mutable last_progress : float;
  mutable subs : int;  (* in-flight jobs this conn awaits *)
  mutable closed : bool;
}

let max_out = 4 * 1024 * 1024

(* --- jobs --------------------------------------------------------- *)

type waiter = {
  w_conn : conn;
  w_role : string;  (* "miss" | "coalesced" *)
  w_stream : bool;
  w_arrived : float;
}

type job = {
  j_fp : string;
  j_query : Query.t;
  mutable j_waiters : waiter list;
}

type event =
  | Partial of {
      fp : string;
      done_reps : int;
      finished : int;
      quantiles : float array;
    }
  | Done of { fp : string; entry : Store.entry }
  | Failed of { fp : string; error : string }

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  bound_port : int;
  store : Store.t;
  mutable conns : conn list;
  inflight : (string, job) Hashtbl.t;
  (* admission queue + compute-domain mailbox, both [lock]-guarded *)
  lock : Mutex.t;
  queue : job Queue.t;
  mutable events : event list;  (* newest first *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  stopping : bool Atomic.t;
  started_at : float;
  (* authoritative counters: manifest and [stats] work with the
     Metrics subsystem disabled; [m_*] mirrors feed metrics snapshots *)
  mutable requests : int;
  mutable hits : int;
  mutable misses : int;
  mutable coalesced : int;
  mutable shed : int;
  mutable stalled_drops : int;
  mutable errors : int;
  m_requests : Metrics.counter;
  m_hits : Metrics.counter;
  m_misses : Metrics.counter;
  m_coalesced : Metrics.counter;
  m_shed : Metrics.counter;
  m_stalled : Metrics.counter;
  m_errors : Metrics.counter;
  m_latency : Metrics.histogram;
}

let latency_buckets =
  [| 1e-5; 3e-5; 1e-4; 3e-4; 1e-3; 3e-3; 1e-2; 3e-2; 0.1; 0.3; 1.; 3.; 10.; 30. |]

let create config =
  if config.queue_cap < 1 then invalid_arg "Server.create: queue_cap >= 1";
  if config.chunk < 1 then invalid_arg "Server.create: chunk >= 1";
  Metrics.enable ();
  let store =
    Store.open_ ~fsync:config.fsync ~cap:config.cache_cap ~dir:config.dir ()
  in
  (* Checkpoints of in-progress sweeps live beside the journal so a
     killed server resumes a half-computed query bit-identically. *)
  (let cp = Filename.concat config.dir "cp" in
   try Unix.mkdir cp 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  let addr =
    Unix.ADDR_INET (Rumor_util.Net.resolve_exn config.host, config.port)
  in
  (try Unix.bind listen_fd addr
   with e ->
     Unix.close listen_fd;
     Store.close store;
     raise e);
  Unix.listen listen_fd 64;
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> config.port
  in
  Unix.set_nonblock listen_fd;
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  {
    config;
    listen_fd;
    bound_port;
    store;
    conns = [];
    inflight = Hashtbl.create 16;
    lock = Mutex.create ();
    queue = Queue.create ();
    events = [];
    wake_r;
    wake_w;
    stopping = Atomic.make false;
    started_at = Clock.now_s ();
    requests = 0;
    hits = 0;
    misses = 0;
    coalesced = 0;
    shed = 0;
    stalled_drops = 0;
    errors = 0;
    m_requests = Metrics.counter "harness.serve.requests";
    m_hits = Metrics.counter "harness.serve.cache_hits";
    m_misses = Metrics.counter "harness.serve.cache_misses";
    m_coalesced = Metrics.counter "harness.serve.coalesced";
    m_shed = Metrics.counter "harness.serve.shed";
    m_stalled = Metrics.counter "harness.serve.stalled_drops";
    m_errors = Metrics.counter "harness.serve.errors";
    m_latency =
      Metrics.histogram ~buckets:latency_buckets "harness.serve.latency_s";
  }

let port t = t.bound_port

let counters t =
  {
    requests = t.requests;
    hits = t.hits;
    misses = t.misses;
    coalesced = t.coalesced;
    shed = t.shed;
    stalled_drops = t.stalled_drops;
    errors = t.errors;
  }

let wake t =
  (* Signal-safe and domain-safe: one byte into the self-pipe. *)
  try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _) ->
    ()

let stop t =
  Atomic.set t.stopping true;
  wake t

(* --- compute domain ----------------------------------------------- *)

let post t ev =
  Mutex.lock t.lock;
  t.events <- ev :: t.events;
  Mutex.unlock t.lock;
  wake t

let checkpoint_path t fp =
  Filename.concat (Filename.concat t.config.dir "cp") (fp ^ ".ckpt")

(* Chunked execution: [reps = k] then [k + chunk] then ... resuming the
   same checkpoint each round.  By the sweep's resume + prefix
   guarantees the concatenation is bit-identical to one offline
   [Run.async_spread_sweep] call at the full replicate count.

   When the query carries [ci_width = Some w] the chunk boundary doubles
   as an adaptive stopping decision: once the CI half-width on the mean
   spread time over the prefix reaches [w] (at [ci_level]), the loop
   stops early and the store entry records the actually consumed
   prefix.  Because the decision only ever truncates to a replicate
   prefix, the served sample stays bit-identical to the same prefix of
   the fixed-count run. *)
let adaptive_stop (q : Query.t) ~consumed sweep =
  match q.Query.ci_width with
  | None -> false
  | Some w ->
    let config =
      Adaptive.config ~level:q.Query.ci_level
        ~min_reps:(min 16 q.Query.reps) ~max_reps:q.Query.reps
        (Adaptive.Abs w)
    in
    let s = Stream.create () in
    Array.iter (Stream.add s) (Run.usable_times sweep);
    (match
       Adaptive.decide config ~consumed ~used:(Stream.count s)
         ~mean:(Stream.mean s) ~sd:(Stream.stddev s)
     with
     | Adaptive.Stop Adaptive.Converged -> true
     | Adaptive.Stop Adaptive.Budget | Adaptive.Continue -> false)

let compute t (job : job) =
  let q = job.j_query in
  let fp = job.j_fp in
  let cp = checkpoint_path t fp in
  let t0 = Clock.now_s () in
  try
    let k = ref 0 in
    let last = ref None in
    let aborted = ref false in
    let converged = ref false in
    while !k < q.reps && not !aborted && not !converged do
      if Atomic.get t.stopping then aborted := true
      else begin
        if t.config.throttle_s > 0. then Unix.sleepf t.config.throttle_s;
        let k' = min q.reps (!k + t.config.chunk) in
        let sweep =
          Query.sweep ?jobs:t.config.jobs ~checkpoint:cp ~reps:k' q
        in
        k := k';
        last := Some sweep;
        if adaptive_stop q ~consumed:!k sweep then converged := true
        else if !k < q.reps then begin
          let finished, _, _ = Run.sweep_counts sweep in
          post t
            (Partial
               {
                 fp;
                 done_reps = !k;
                 finished;
                 quantiles = Run.quantiles_of_sweep sweep q.points;
               })
        end
      end
    done;
    if !aborted then post t (Failed { fp; error = "server shutting down" })
    else begin
      let sweep = Option.get !last in
      let finished, censored, failed = Run.sweep_counts sweep in
      let entry =
        {
          Store.query = q;
          quantiles = Run.quantiles_of_sweep sweep q.points;
          reps = !k;
          finished;
          censored;
          failed;
          wall_s = Clock.now_s () -. t0;
        }
      in
      (* The checkpoint only matters for crash resume; the WAL-journaled
         store is the durable artifact now. *)
      (try Sys.remove cp with Sys_error _ -> ());
      post t (Done { fp; entry })
    end
  with e -> post t (Failed { fp; error = Printexc.to_string e })

let compute_loop t =
  let rec go () =
    if Atomic.get t.stopping then ()
    else begin
      Mutex.lock t.lock;
      let job = Queue.take_opt t.queue in
      Mutex.unlock t.lock;
      match job with
      | Some job ->
        compute t job;
        go ()
      | None ->
        Unix.sleepf 0.02;
        go ()
    end
  in
  go ()

(* --- responses ---------------------------------------------------- *)

let float_list a = Json.List (List.map (fun x -> Json.Float x) a)

let hex_list a =
  Json.List
    (List.map (fun x -> Json.String (Printf.sprintf "%h" x)) a)

let result_json ~fp ~cache (e : Store.entry) =
  let qs = Array.to_list e.quantiles in
  Json.Obj
    [
      ("k", Json.String "result");
      ("fp", Json.String fp);
      ("cache", Json.String cache);
      ("reps", Json.Int e.reps);
      ("finished", Json.Int e.finished);
      ("censored", Json.Int e.censored);
      ("failed", Json.Int e.failed);
      ("points", float_list e.query.Query.points);
      ("quantiles", float_list qs);
      ("quantiles_hex", hex_list qs);
      ("wall_s", Json.Float e.wall_s);
    ]

let partial_json ~fp ~done_reps ~reps ~finished quantiles =
  Json.Obj
    [
      ("k", Json.String "partial");
      ("fp", Json.String fp);
      ("done", Json.Int done_reps);
      ("reps", Json.Int reps);
      ("finished", Json.Int finished);
      ("quantiles", float_list (Array.to_list quantiles));
    ]

let error_json msg =
  Json.Obj [ ("k", Json.String "error"); ("error", Json.String msg) ]

let drop_conn t conn =
  if not conn.closed then begin
    conn.closed <- true;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    t.conns <- List.filter (fun c -> c != conn) t.conns
  end

let flush_out conn =
  let len = Buffer.length conn.out in
  if len > 0 && not conn.closed then begin
    let b = Buffer.to_bytes conn.out in
    match Unix.write conn.fd b 0 len with
    | n ->
      Buffer.clear conn.out;
      if n < len then Buffer.add_subbytes conn.out b n (len - n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> conn.closed <- true
  end

let respond t conn json =
  if not conn.closed then begin
    (match conn.mode with
    | Binary -> Buffer.add_bytes conn.out (Proto.frame json)
    | Jsonl | Unknown ->
      Buffer.add_string conn.out (Json.to_string json);
      Buffer.add_char conn.out '\n');
    if Buffer.length conn.out > max_out then drop_conn t conn
    else flush_out conn
  end

(* --- request handling --------------------------------------------- *)

let stats_json t =
  Json.Obj
    [
      ("k", Json.String "stats");
      ("uptime_s", Json.Float (Clock.now_s () -. t.started_at));
      ("requests", Json.Int t.requests);
      ("hits", Json.Int t.hits);
      ("misses", Json.Int t.misses);
      ("coalesced", Json.Int t.coalesced);
      ("shed", Json.Int t.shed);
      ("stalled_drops", Json.Int t.stalled_drops);
      ("errors", Json.Int t.errors);
      ("cache_size", Json.Int (Store.size t.store));
      ("evictions", Json.Int (Store.evictions t.store));
      ("queue", Json.Int (Queue.length t.queue));
      ("inflight", Json.Int (Hashtbl.length t.inflight));
    ]

let observe_latency t arrived =
  Metrics.observe t.m_latency (Clock.now_s () -. arrived)

let fail_request t conn msg =
  t.errors <- t.errors + 1;
  Metrics.incr t.m_errors;
  respond t conn (error_json msg)

let handle_query t conn j =
  let stream =
    match Json.member "stream" j with Some (Json.Bool b) -> b | _ -> false
  in
  match Query.of_json j with
  | Error e -> fail_request t conn e
  | Ok q when q.Query.n > t.config.max_n ->
    fail_request t conn
      (Printf.sprintf "n %d exceeds server limit %d" q.Query.n t.config.max_n)
  | Ok q when q.Query.reps > t.config.max_reps ->
    fail_request t conn
      (Printf.sprintf "reps %d exceeds server limit %d" q.Query.reps
         t.config.max_reps)
  | Ok q -> (
    let fp = Query.key q in
    let arrived = Clock.now_s () in
    match Store.find t.store fp with
    | Some entry ->
      t.hits <- t.hits + 1;
      Metrics.incr t.m_hits;
      respond t conn (result_json ~fp ~cache:"hit" entry);
      observe_latency t arrived
    | None -> (
      match Hashtbl.find_opt t.inflight fp with
      | Some job ->
        t.coalesced <- t.coalesced + 1;
        Metrics.incr t.m_coalesced;
        conn.subs <- conn.subs + 1;
        job.j_waiters <-
          { w_conn = conn; w_role = "coalesced"; w_stream = stream; w_arrived = arrived }
          :: job.j_waiters
      | None ->
        let depth = Mutex.protect t.lock (fun () -> Queue.length t.queue) in
        if depth >= t.config.queue_cap then begin
          t.shed <- t.shed + 1;
          Metrics.incr t.m_shed;
          respond t conn
            (Json.Obj
               [
                 ("k", Json.String "overloaded");
                 ("queue", Json.Int depth);
                 ("capacity", Json.Int t.config.queue_cap);
               ])
        end
        else begin
          t.misses <- t.misses + 1;
          Metrics.incr t.m_misses;
          conn.subs <- conn.subs + 1;
          let job =
            {
              j_fp = fp;
              j_query = q;
              j_waiters =
                [ { w_conn = conn; w_role = "miss"; w_stream = stream; w_arrived = arrived } ];
            }
          in
          Hashtbl.replace t.inflight fp job;
          Mutex.protect t.lock (fun () -> Queue.add job t.queue)
        end))

let handle_request t conn j =
  t.requests <- t.requests + 1;
  Metrics.incr t.m_requests;
  let op =
    match Option.bind (Json.member "op" j) Json.to_string_opt with
    | Some op -> op
    | None -> "query"
  in
  match op with
  | "ping" -> respond t conn (Json.Obj [ ("k", Json.String "pong") ])
  | "stats" -> respond t conn (stats_json t)
  | "query" -> handle_query t conn j
  | other -> fail_request t conn (Printf.sprintf "unknown op %S" other)

(* --- events from the compute domain ------------------------------- *)

let settle_waiter t fp entry w =
  if not w.w_conn.closed then begin
    respond t w.w_conn (result_json ~fp ~cache:w.w_role entry);
    observe_latency t w.w_arrived
  end;
  w.w_conn.subs <- w.w_conn.subs - 1

let handle_event t = function
  | Partial { fp; done_reps; finished; quantiles } -> (
    match Hashtbl.find_opt t.inflight fp with
    | None -> ()
    | Some job ->
      let reps = job.j_query.Query.reps in
      List.iter
        (fun w ->
          if w.w_stream && not w.w_conn.closed then
            respond t w.w_conn
              (partial_json ~fp ~done_reps ~reps ~finished quantiles))
        job.j_waiters)
  | Done { fp; entry } -> (
    Store.add t.store fp entry;
    match Hashtbl.find_opt t.inflight fp with
    | None -> ()
    | Some job ->
      Hashtbl.remove t.inflight fp;
      List.iter (settle_waiter t fp entry) (List.rev job.j_waiters))
  | Failed { fp; error } -> (
    match Hashtbl.find_opt t.inflight fp with
    | None -> ()
    | Some job ->
      Hashtbl.remove t.inflight fp;
      t.errors <- t.errors + 1;
      Metrics.incr t.m_errors;
      List.iter
        (fun w ->
          if not w.w_conn.closed then
            respond t w.w_conn (error_json ("compute failed: " ^ error));
          w.w_conn.subs <- w.w_conn.subs - 1)
        (List.rev job.j_waiters))

let drain_events t =
  let evs =
    Mutex.protect t.lock (fun () ->
        let evs = t.events in
        t.events <- [];
        List.rev evs)
  in
  List.iter (handle_event t) evs

(* --- input -------------------------------------------------------- *)

let parse_and_handle t conn payload =
  let payload = String.trim payload in
  if payload <> "" then
    match Json.parse payload with
    | Ok j -> handle_request t conn j
    | Error e -> fail_request t conn ("bad request: " ^ e)

let drain_jsonl t conn =
  let continue = ref true in
  while !continue && not conn.closed do
    let s = Buffer.contents conn.line in
    match String.index_opt s '\n' with
    | None -> continue := false
    | Some i ->
      Buffer.clear conn.line;
      Buffer.add_string conn.line
        (String.sub s (i + 1) (String.length s - i - 1));
      parse_and_handle t conn (String.sub s 0 i)
  done

let drain_binary t conn =
  let continue = ref true in
  while !continue && not conn.closed do
    match Proto.next conn.rdr with
    | Some j -> handle_request t conn j
    | None -> continue := false
    | exception Proto.Protocol_error e ->
      fail_request t conn ("bad frame: " ^ e);
      flush_out conn;
      drop_conn t conn;
      continue := false
  done

let on_readable t conn =
  let chunk = Bytes.create 65536 in
  match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
  | 0 -> drop_conn t conn
  | n ->
    conn.last_progress <- Clock.now_s ();
    if conn.mode = Unknown then begin
      (* First byte decides the wire mode: a JSON object or whitespace
         opens a JSONL session; anything else is a length prefix (a
         leading '{' would imply a > [max_frame] length, so the two
         framings cannot be confused). *)
      let c = Bytes.get chunk 0 in
      conn.mode <-
        (if c = '{' || c = ' ' || c = '\t' || c = '\r' || c = '\n' then Jsonl
         else Binary)
    end;
    (match conn.mode with
    | Jsonl ->
      Buffer.add_subbytes conn.line chunk 0 n;
      drain_jsonl t conn
    | Binary ->
      Proto.feed conn.rdr chunk n;
      drain_binary t conn
    | Unknown -> ())
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error _ -> drop_conn t conn

(* A connection is stalled when bytes of an incomplete request have
   aged past the read timeout, or it connected and never sent anything.
   Quietly idle clients with a live subscription (or a clean request
   boundary) are fine — only half-open peers lose their slot. *)
let conn_stalled t conn ~now =
  let timeout = t.config.read_timeout_s in
  timeout > 0.
  &&
  let age = now -. conn.last_progress in
  match conn.mode with
  | Unknown -> age > timeout
  | Jsonl -> Buffer.length conn.line > 0 && age > timeout
  | Binary -> Proto.stalled conn.rdr ~now ~timeout

let reap_stalled t =
  let now = Clock.now_s () in
  List.iter
    (fun conn ->
      if conn_stalled t conn ~now then begin
        t.stalled_drops <- t.stalled_drops + 1;
        Metrics.incr t.m_stalled;
        drop_conn t conn
      end)
    t.conns

(* --- manifest ----------------------------------------------------- *)

let manifest_path t = Filename.concat t.config.dir "serve.manifest.json"

let write_manifest t =
  let c = t.config in
  let json =
    Json.Obj
      ([
         ("schema", Json.String "rumor-serve/1");
         ("host", Json.String c.host);
         ("port", Json.Int t.bound_port);
         ("queue_cap", Json.Int c.queue_cap);
         ("cache_cap", Json.Int c.cache_cap);
         ("chunk", Json.Int c.chunk);
         ("read_timeout_s", Json.Float c.read_timeout_s);
         ("uptime_s", Json.Float (Clock.now_s () -. t.started_at));
         ("requests", Json.Int t.requests);
         ("hits", Json.Int t.hits);
         ("misses", Json.Int t.misses);
         ("coalesced", Json.Int t.coalesced);
         ("shed", Json.Int t.shed);
         ("stalled_drops", Json.Int t.stalled_drops);
         ("errors", Json.Int t.errors);
         ("cache_size", Json.Int (Store.size t.store));
         ("evictions", Json.Int (Store.evictions t.store));
       ]
      @ Provenance.manifest_fields ())
  in
  Wal.write_atomic (manifest_path t) (Json.to_string ~pretty:true json ^ "\n")

(* --- main loop ---------------------------------------------------- *)

let serve t =
  let compute_domain = Domain.spawn (fun () -> compute_loop t) in
  let drain_wake () =
    let b = Bytes.create 64 in
    let rec go () =
      match Unix.read t.wake_r b 0 64 with
      | 64 -> go ()
      | _ -> ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    in
    go ()
  in
  while not (Atomic.get t.stopping) do
    let readable_want =
      t.listen_fd :: t.wake_r :: List.map (fun c -> c.fd) t.conns
    in
    let writable_want =
      List.filter_map
        (fun c -> if Buffer.length c.out > 0 then Some c.fd else None)
        t.conns
    in
    let readable, writable, _ =
      match Unix.select readable_want writable_want [] 0.2 with
      | r -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        match List.find_opt (fun c -> c.fd = fd) t.conns with
        | Some conn -> flush_out conn
        | None -> ())
      writable;
    List.iter
      (fun fd ->
        if fd = t.wake_r then drain_wake ()
        else if fd = t.listen_fd then begin
          match Unix.accept ~cloexec:true t.listen_fd with
          | conn_fd, _ ->
            Unix.set_nonblock conn_fd;
            Rumor_util.Net.tune_stream_socket conn_fd;
            t.conns <-
              {
                fd = conn_fd;
                mode = Unknown;
                rdr = Proto.reader ();
                line = Buffer.create 256;
                out = Buffer.create 256;
                last_progress = Clock.now_s ();
                subs = 0;
                closed = false;
              }
              :: t.conns
          | exception Unix.Unix_error _ -> ()
        end
        else
          match List.find_opt (fun c -> c.fd = fd) t.conns with
          | Some conn -> on_readable t conn
          | None -> ())
      readable;
    drain_events t;
    reap_stalled t;
    t.conns <- List.filter (fun c -> not c.closed) t.conns
  done;
  (* Drain: the compute domain notices [stopping] at its next chunk
     boundary and fails the in-flight job; its waiters get an explicit
     shutdown error rather than a silent hangup. *)
  Domain.join compute_domain;
  drain_events t;
  (* Jobs still queued (never started) get the same explicit error. *)
  Hashtbl.iter
    (fun _ job ->
      List.iter
        (fun w ->
          if not w.w_conn.closed then
            respond t w.w_conn (error_json "server shutting down"))
        job.j_waiters)
    t.inflight;
  Hashtbl.reset t.inflight;
  List.iter (fun c -> flush_out c) t.conns;
  List.iter (fun c -> drop_conn t c) t.conns;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
  write_manifest t;
  Store.close t.store
