module Clock = Rumor_obs.Clock
module Rng = Rumor_rng.Rng
module Net = Rumor_util.Net

let partial_name ~task ~lease ~epoch =
  Printf.sprintf ".%s.l%de%d.partial" task lease epoch

type transport =
  | Unix_sock of string
  | Tcp of { host : string; port : int; token : string option }

let describe = function
  | Unix_sock path -> path
  | Tcp { host; port; _ } -> Printf.sprintf "%s:%d" host port

(* Serialize socket writes: the heartbeat domain and the main loop
   share one stream, and an interleaved frame would desynchronize the
   coordinator's reader.  [closed] is flipped under the same lock, so
   a straggling heartbeat can never write into a recycled fd number
   after a reconnect tears the old socket down. *)
type conn = {
  fd : Unix.file_descr;
  lock : Mutex.t;
  mutable crc : bool;
  mutable closed : bool;
}

let send conn msg =
  Mutex.lock conn.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.lock)
    (fun () ->
      if conn.closed then raise (Sys_error "connection closed");
      Proto.send ~crc:conn.crc conn.fd (Proto.to_json msg))

let close_conn conn =
  Mutex.lock conn.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.lock)
    (fun () ->
      if not conn.closed then begin
        conn.closed <- true;
        try Unix.close conn.fd with Unix.Unix_error _ -> ()
      end)

let backoff_s ~seed ~attempt =
  let jitter = Rng.float (Rng.derive seed attempt) in
  Float.min 3. (0.05 *. (2. ** float_of_int (attempt - 1))) *. (0.5 +. jitter)

(* Errors worth a fresh attempt: the coordinator may simply not be
   listening yet (campaign startup races the worker fork) or the
   network hiccuped.  Anything else (EACCES, bad address family, ...)
   is a configuration problem retries cannot fix. *)
let retryable_errno = function
  | Unix.ENOENT | Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ETIMEDOUT
  | Unix.EHOSTUNREACH | Unix.ENETUNREACH | Unix.EINTR | Unix.EAGAIN ->
    true
  | _ -> false

let connect ?(attempts = 10) ~seed transport =
  (* A fresh socket per attempt: a failed [connect] leaves the fd in
     an unspecified state, and retrying on it is EINVAL on some
     platforms. *)
  let try_once () =
    match transport with
    | Unix_sock path -> (
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> Ok fd
      | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error e)
    | Tcp { host; port; _ } -> (
      match Net.resolve host with
      | Error msg -> Error (Failure msg)
      | Ok addr -> (
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        match
          Unix.connect fd (Unix.ADDR_INET (addr, port));
          Net.tune_stream_socket fd
        with
        | () -> Ok fd
        | exception e ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error e))
  in
  let rec go k =
    match try_once () with
    | Ok fd -> Some fd
    | Error e ->
      let retry =
        match e with
        | Unix.Unix_error (err, _, _) -> retryable_errno err
        | Failure _ -> true (* resolver failures can be transient *)
        | _ -> false
      in
      if retry && k < attempts then begin
        (* Backoff pacing between connect attempts. *)
        Unix.sleepf (backoff_s ~seed ~attempt:k);
        go (k + 1)
      end
      else None
  in
  go 1

(* Run one task with stdout redirected to its stamped capture file.
   The file is complete (flushed, synced) before the result frame is
   sent, so an accepted result always has its bytes behind it. *)
let run_captured ~tasks_dir ~task ~lease ~epoch run_task =
  let file = partial_name ~task ~lease ~epoch in
  let path = Filename.concat tasks_dir file in
  flush stdout;
  let saved = Unix.dup ~cloexec:true Unix.stdout in
  let out =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let restore () =
    flush stdout;
    (try Unix.fsync out with Unix.Unix_error _ -> ());
    Unix.dup2 saved Unix.stdout;
    (try Unix.close saved with Unix.Unix_error _ -> ());
    try Unix.close out with Unix.Unix_error _ -> ()
  in
  Unix.dup2 out Unix.stdout;
  let t0 = Clock.now_s () in
  let outcome =
    match run_task task with
    | () -> Ok (Clock.now_s () -. t0)
    | exception e -> Error (Clock.now_s () -. t0, e)
  in
  restore ();
  (file, outcome)

(* TCP results inline the captured bytes.  The cap leaves the JSON
   escaper (worst case six output bytes per input byte) comfortable
   room under [Proto.max_frame], so building the frame can never
   itself raise. *)
let max_inline = 1 lsl 20

let read_back path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> Some s
  | exception (Sys_error _ | End_of_file) -> None

exception Reconnect of string
exception Fatal of string

let run ?(heartbeat_s = 0.5) ?(read_timeout_s = 30.) ?(max_reconnects = 100)
    ~transport ~id ~tasks_dir ~run_task () =
  (* A coordinator that died mid-write must surface as EPIPE on our
     next send, not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  (* A TCP peer shares no filesystem with the coordinator, so its
     results carry the captured bytes; the campaign token applies to
     TCP admission only. *)
  let token, inline =
    match transport with
    | Tcp { token; _ } -> (token, true)
    | Unix_sock _ -> (None, false)
  in
  let seed = Int64.of_int (if id >= 0 then id + 1 else Unix.getpid ()) in
  let sess_id = ref id in
  (* Results of the current lease the coordinator has not provably
     processed yet; re-sent when the lease is regranted, so a result
     whose frame died with a connection still arrives (lease/epoch
     replay on the coordinator decides whether to trust a duplicate). *)
  let unacked : Proto.msg list ref = ref [] (* newest first *) in
  let conn_cell : (conn * int) option Atomic.t = Atomic.make None in
  (* Grants fully processed on the current connection, or -1 while a
     batch runs: the heartbeat reports it so the coordinator can tell
     a lost grant or result from one still in flight. *)
  let idle = Atomic.make 0 in
  (* Self-pipe: one byte on [wake_w] ends the heartbeat domain at once,
     so an orderly Stop never waits out a heartbeat period. *)
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let beats =
    Domain.spawn (fun () ->
        let rec loop () =
          match Unix.select [ wake_r ] [] [] heartbeat_s with
          | [], _, _ ->
            (match Atomic.get conn_cell with
            | None -> () (* between sessions: nothing to prove alive on *)
            | Some (conn, w) -> (
              let grants = Atomic.get idle in
              try
                send conn
                  (if grants < 0 then Proto.Beat { worker = w }
                   else Proto.Idle { worker = w; grants })
              with Unix.Unix_error _ | Sys_error _ ->
                (* Main loop owns reconnect; drop the beat. *)
                ()));
            loop ()
          | _ -> ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
        in
        loop ())
  in
  let reconnects = ref 0 in
  (* Consecutive sessions that died before completing the handshake;
     gates an extra between-session backoff so a coordinator that
     accepts and immediately drops us is not hammered. *)
  let fail_streak = ref 0 in
  let handshake conn reader =
    send conn
      (Proto.Hello
         {
           worker = !sess_id;
           pid = Unix.getpid ();
           proto = Proto.version;
           token;
           crc = true;
         });
    match
      Proto.recv ~deadline:(Clock.now_s () +. 10.) conn.fd reader
      |> Option.map Proto.of_json
    with
    | None -> raise (Reconnect "no welcome (EOF)")
    | Some (Some (Proto.Welcome { worker; proto = _; crc })) ->
      sess_id := worker;
      conn.crc <- crc;
      Proto.set_crc reader crc
    | Some (Some (Proto.Reject { reason })) ->
      raise (Fatal (Printf.sprintf "admission rejected: %s" reason))
    | Some _ -> raise (Reconnect "unexpected pre-welcome frame")
  in
  let result_msg ~lease ~epoch ~task ~file outcome =
    let result ?err ?data ?(transient = false) ~ok wall_s =
      Proto.Result
        {
          worker = !sess_id; lease; epoch; task; ok; wall_s; file; err;
          transient; data;
        }
    in
    match outcome with
    | Ok wall_s when not inline -> result ~ok:true wall_s
    | Ok wall_s -> (
      match read_back (Filename.concat tasks_dir file) with
      | Some s when String.length s <= max_inline ->
        result ~ok:true ~data:s wall_s
      | Some s ->
        result ~ok:false wall_s
          ~err:
            (Printf.sprintf
               "captured output of %d bytes exceeds the %d-byte inline cap"
               (String.length s) max_inline)
      | None ->
        result ~ok:false ~transient:true wall_s
          ~err:"cannot read captured output back")
    | Error (wall_s, e) ->
      result ~ok:false wall_s ~err:(Printexc.to_string e)
        ~transient:(Campaign.default_classify e = Campaign.Transient)
  in
  let handle_grant conn ~lease ~epoch tasks =
    (* A grant of a new lease proves the coordinator processed
       everything we sent on the previous one: drop those results.  A
       regrant of the same lease (after a resume, or when a frame was
       lost) re-sends the results held for it instead of re-running
       their tasks — a re-run would rewrite the stamped capture file
       the coordinator may be about to rename. *)
    Atomic.set idle (-1);
    unacked :=
      List.filter
        (function
          | Proto.Result r -> r.lease = lease && r.epoch = epoch
          | _ -> false)
        !unacked;
    let broken = ref None in
    List.iter
      (fun task ->
        let msg =
          match
            List.find_opt
              (function Proto.Result r -> r.task = task | _ -> false)
              !unacked
          with
          | Some held -> held
          | None ->
            let file, outcome =
              run_captured ~tasks_dir ~task ~lease ~epoch run_task
            in
            let msg = result_msg ~lease ~epoch ~task ~file outcome in
            unacked := msg :: !unacked;
            msg
        in
        if !broken = None then
          try send conn msg
          with (Unix.Unix_error _ | Sys_error _) as e ->
            (* Finish the whole batch first — the work is done either
               way; the results are re-sent when the resumed session
               regrants the lease. *)
            broken := Some (Printexc.to_string e))
      tasks;
    match !broken with
    | Some why -> raise (Reconnect ("send failed: " ^ why))
    | None -> ()
  in
  let rec sessions () =
    match connect ~seed transport with
    | None ->
      Printf.eprintf "rumor worker %d: cannot reach coordinator at %s\n%!"
        !sess_id (describe transport);
      3
    | Some fd -> (
      let conn = { fd; lock = Mutex.create (); crc = false; closed = false } in
      let reader = Proto.reader () in
      let admitted = ref false in
      let outcome =
        Fun.protect
          ~finally:(fun () ->
            Atomic.set conn_cell None;
            close_conn conn)
          (fun () ->
            try
              handshake conn reader;
              admitted := true;
              let grants = ref 0 in
              Atomic.set idle 0;
              Atomic.set conn_cell (Some (conn, !sess_id));
              let rec loop () =
                match
                  Proto.recv ~stall_timeout:read_timeout_s conn.fd reader
                with
                | None -> raise (Reconnect "eof")
                | Some j -> (
                  match Proto.of_json j with
                  | Some Proto.Stop -> `Done 0
                  | Some (Proto.Grant { lease; epoch; tasks }) ->
                    handle_grant conn ~lease ~epoch tasks;
                    incr grants;
                    Atomic.set idle !grants;
                    loop ()
                  | Some _ | None ->
                    (* unknown message: ignore, stay compatible *)
                    loop ())
              in
              loop ()
            with
            | Fatal msg ->
              Printf.eprintf "rumor worker %d: %s\n%!" !sess_id msg;
              `Done 3
            | Reconnect why -> `Again why
            | Unix.Unix_error _ | Sys_error _ | Proto.Protocol_error _ ->
              `Again "connection error")
      in
      match outcome with
      | `Done code -> code
      | `Again why ->
        incr reconnects;
        if !admitted then fail_streak := 0 else incr fail_streak;
        if !reconnects > max_reconnects then begin
          Printf.eprintf
            "rumor worker %d: giving up after %d reconnects (%s)\n%!" !sess_id
            !reconnects why;
          3
        end
        else begin
          (* Backoff pacing between failed handshakes. *)
          if !fail_streak > 0 then
            Unix.sleepf (backoff_s ~seed ~attempt:(Int.min 10 !fail_streak));
          sessions ()
        end)
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.write_substring wake_w "x" 0 1);
      Domain.join beats;
      Unix.close wake_r;
      Unix.close wake_w)
    sessions
