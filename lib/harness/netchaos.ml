module Clock = Rumor_obs.Clock
module Rng = Rumor_rng.Rng
module Net = Rumor_util.Net

type fault = {
  latency_s : float;
  jitter_s : float;
  bandwidth_bps : int option;
  drop_p : float;
  dup_p : float;
  corrupt_p : float;
  truncate_p : float;
  reset_p : float;
  reset_after_bytes : int option;
  max_resets : int option;
}

type stats = {
  conns : int;
  chunks : int;
  bytes : int;
  dropped_chunks : int;
  dup_chunks : int;
  corrupted_chunks : int;
  truncated_chunks : int;
  resets : int;
}

type counters = {
  mutable c_conns : int;
  mutable c_chunks : int;
  mutable c_bytes : int;
  mutable c_dropped : int;
  mutable c_dup : int;
  mutable c_corrupted : int;
  mutable c_truncated : int;
  mutable c_resets : int;
}

(* One direction of a proxied connection.  [q] holds chunks scheduled
   for delivery ([due] timestamp each); [next_avail] enforces FIFO
   order and the bandwidth cap. *)
type dir = {
  src : Unix.file_descr;
  dst : Unix.file_descr;
  dir_bit : int;  (* 0 = client->server, 1 = server->client *)
  q : (float * Bytes.t) Queue.t;
  mutable next_avail : float;
  mutable chunk_idx : int;
  mutable src_open : bool;  (* no EOF from src yet *)
  mutable eof_sent : bool;  (* SHUTDOWN_SEND already done on dst *)
}

type link = {
  id : int;
  client : Unix.file_descr;
  server : Unix.file_descr;
  fwd : dir;  (* client -> server *)
  bwd : dir;  (* server -> client *)
  mutable forwarded : int;  (* bytes accepted on the link, both dirs *)
  mutable dead : bool;
}

type t = {
  listen_fd : Unix.file_descr;
  bound_port : int;
  forward_host : string;
  forward_port : int;
  stop_flag : bool Atomic.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  counters : counters;
  lock : Mutex.t;
  mutable domain : unit Domain.t option;
}

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* An abortive close: SO_LINGER 0 turns the close into an RST, which
   is what a real mid-transfer network failure looks like to both
   peers (ECONNRESET, not a clean EOF). *)
let reset_close fd =
  (try Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0)
   with Unix.Unix_error _ | Invalid_argument _ -> ());
  close_quiet fd

let kill_link ~rst link =
  if not link.dead then begin
    link.dead <- true;
    if rst then begin
      reset_close link.client;
      reset_close link.server
    end
    else begin
      close_quiet link.client;
      close_quiet link.server
    end
  end

let write_all fd buf =
  let len = Bytes.length buf in
  let written = ref 0 in
  while !written < len do
    written := !written + Unix.write fd buf !written (len - !written)
  done

let run_proxy t ~seed fault =
  let links : link list ref = ref [] in
  let next_id = ref 0 in
  let locked f =
    Mutex.lock t.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f
  in
  let resets_left =
    ref (match fault.max_resets with Some n -> n | None -> max_int)
  in
  let chunk_buf = Bytes.create 16384 in
  (* Every decision about chunk [idx] of direction [d] of link [l] is
     a pure function of (seed, l, d, idx): the fault schedule is
     deterministic per seed even though chunk boundaries (and so the
     exact bytes affected) depend on socket timing. *)
  let decisions link (d : dir) =
    let base =
      Int64.add (Int64.of_int seed) (Int64.mul (Int64.of_int link.id) 1000003L)
    in
    let rng = Rng.derive base ((2 * d.chunk_idx) + d.dir_bit) in
    d.chunk_idx <- d.chunk_idx + 1;
    rng
  in
  let schedule d ~now ~jit (payload : Bytes.t) =
    let due = Float.max (now +. fault.latency_s +. jit) d.next_avail in
    d.next_avail <-
      (due
      +.
      match fault.bandwidth_bps with
      | Some bps when bps > 0 ->
        float_of_int (Bytes.length payload) /. float_of_int bps
      | _ -> 0.);
    Queue.add (due, payload) d.q
  in
  let handle_chunk link d n =
    let now = Clock.now_s () in
    let rng = decisions link d in
    let u_drop = Rng.float rng in
    let u_dup = Rng.float rng in
    let u_corrupt = Rng.float rng in
    let u_trunc = Rng.float rng in
    let u_reset = Rng.float rng in
    let u_jit = Rng.float rng in
    let payload = Bytes.sub chunk_buf 0 n in
    locked (fun () ->
        t.counters.c_chunks <- t.counters.c_chunks + 1;
        t.counters.c_bytes <- t.counters.c_bytes + n);
    link.forwarded <- link.forwarded + n;
    let jit = fault.jitter_s *. u_jit in
    let want_reset =
      u_reset < fault.reset_p
      || (match fault.reset_after_bytes with
         | Some cap -> link.forwarded >= cap
         | None -> false)
    in
    let want_trunc = u_trunc < fault.truncate_p in
    if (want_reset || want_trunc) && !resets_left > 0 then begin
      decr resets_left;
      (if want_trunc && not want_reset then begin
         (* Deliver a prefix, then cut: the receiver sees a frame
            truncated mid-stream, exactly the failure CRC trailers
            and stall detection exist for. *)
         locked (fun () ->
             t.counters.c_truncated <- t.counters.c_truncated + 1);
         try write_all d.dst (Bytes.sub payload 0 (Int.max 1 (n / 2)))
         with Unix.Unix_error _ -> ()
       end
       else
         locked (fun () -> t.counters.c_resets <- t.counters.c_resets + 1));
      kill_link ~rst:true link
    end
    else if u_drop < fault.drop_p then
      locked (fun () -> t.counters.c_dropped <- t.counters.c_dropped + 1)
    else begin
      (if u_corrupt < fault.corrupt_p && n > 0 then begin
         let pos = Rng.int rng n in
         Bytes.set payload pos
           (Char.chr (Char.code (Bytes.get payload pos) lxor 0x20));
         locked (fun () ->
             t.counters.c_corrupted <- t.counters.c_corrupted + 1)
       end);
      schedule d ~now ~jit payload;
      if u_dup < fault.dup_p then begin
        locked (fun () -> t.counters.c_dup <- t.counters.c_dup + 1);
        schedule d ~now ~jit:(jit +. fault.jitter_s) (Bytes.copy payload)
      end
    end
  in
  let flush_dir link d ~now =
    (try
       let continue = ref true in
       while (not (Queue.is_empty d.q)) && !continue do
         let due, payload = Queue.peek d.q in
         if due <= now then begin
           ignore (Queue.pop d.q);
           write_all d.dst payload
         end
         else continue := false
       done
     with Unix.Unix_error _ -> kill_link ~rst:false link);
    if
      (not link.dead) && (not d.src_open) && Queue.is_empty d.q
      && not d.eof_sent
    then begin
      d.eof_sent <- true;
      try Unix.shutdown d.dst Unix.SHUTDOWN_SEND
      with Unix.Unix_error _ -> ()
    end
  in
  let accept_client () =
    match Unix.accept ~cloexec:true t.listen_fd with
    | exception Unix.Unix_error _ -> ()
    | client, _ -> (
      Net.tune_stream_socket client;
      match
        let server =
          Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0
        in
        (try
           Unix.connect server
             (Unix.ADDR_INET (Net.resolve_exn t.forward_host, t.forward_port));
           Net.tune_stream_socket server
         with e ->
           close_quiet server;
           raise e);
        server
      with
      | exception _ -> close_quiet client
      | server ->
        let id = !next_id in
        incr next_id;
        locked (fun () -> t.counters.c_conns <- t.counters.c_conns + 1);
        let mk src dst dir_bit =
          {
            src;
            dst;
            dir_bit;
            q = Queue.create ();
            next_avail = 0.;
            chunk_idx = 0;
            src_open = true;
            eof_sent = false;
          }
        in
        links :=
          {
            id;
            client;
            server;
            fwd = mk client server 0;
            bwd = mk server client 1;
            forwarded = 0;
            dead = false;
          }
          :: !links)
  in
  let loop () =
    while not (Atomic.get t.stop_flag) do
      let now = Clock.now_s () in
      let live = List.filter (fun l -> not l.dead) !links in
      links := live;
      (* Deliver everything due, then figure out how long select may
         sleep: until the next due chunk, capped for liveness. *)
      List.iter
        (fun l ->
          flush_dir l l.fwd ~now;
          if not l.dead then flush_dir l l.bwd ~now)
        live;
      let next_due =
        List.fold_left
          (fun acc l ->
            let dir_due d acc =
              match Queue.peek_opt d.q with
              | Some (due, _) -> Float.min acc due
              | None -> acc
            in
            if l.dead then acc else dir_due l.fwd (dir_due l.bwd acc))
          infinity live
      in
      let timeout =
        Float.max 0.002 (Float.min 0.2 (next_due -. Clock.now_s ()))
      in
      let watched =
        t.listen_fd :: t.wake_r
        :: List.concat_map
             (fun l ->
               (if l.fwd.src_open then [ l.fwd.src ] else [])
               @ if l.bwd.src_open then [ l.bwd.src ] else [])
             (List.filter (fun l -> not l.dead) !links)
      in
      let readable =
        match Unix.select watched [] [] timeout with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
        | exception Unix.Unix_error (Unix.EBADF, _, _) -> []
      in
      List.iter
        (fun fd ->
          if fd = t.listen_fd then accept_client ()
          else if fd = t.wake_r then begin
            let b = Bytes.create 64 in
            try ignore (Unix.read t.wake_r b 0 64) with Unix.Unix_error _ -> ()
          end
          else
            match
              List.find_opt
                (fun l ->
                  (not l.dead)
                  && ((l.fwd.src_open && l.fwd.src = fd)
                     || (l.bwd.src_open && l.bwd.src = fd)))
                !links
            with
            | None -> ()
            | Some l -> (
              let d = if l.fwd.src_open && l.fwd.src = fd then l.fwd else l.bwd in
              match Unix.read d.src chunk_buf 0 (Bytes.length chunk_buf) with
              | 0 -> d.src_open <- false
              | n -> handle_chunk l d n
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
              | exception Unix.Unix_error (_, _, _) ->
                kill_link ~rst:false l))
        readable;
      (* A link whose both sides saw EOF and drained is finished. *)
      List.iter
        (fun l ->
          if (not l.dead) && l.fwd.eof_sent && l.bwd.eof_sent then
            kill_link ~rst:false l)
        !links
    done;
    List.iter (fun l -> kill_link ~rst:false l) !links;
    close_quiet t.listen_fd;
    close_quiet t.wake_r;
    close_quiet t.wake_w
  in
  loop ()

let start ?(seed = 2020) ?(listen_host = "127.0.0.1") ?(port = 0)
    ~forward_host ~forward_port fault =
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd (Unix.ADDR_INET (Net.resolve_exn listen_host, port));
  Unix.listen listen_fd 64;
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let t =
    {
      listen_fd;
      bound_port;
      forward_host;
      forward_port;
      stop_flag = Atomic.make false;
      wake_r;
      wake_w;
      counters =
        {
          c_conns = 0;
          c_chunks = 0;
          c_bytes = 0;
          c_dropped = 0;
          c_dup = 0;
          c_corrupted = 0;
          c_truncated = 0;
          c_resets = 0;
        };
      lock = Mutex.create ();
      domain = None;
    }
  in
  t.domain <- Some (Domain.spawn (fun () -> run_proxy t ~seed fault));
  t

let port t = t.bound_port

let stats t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      {
        conns = t.counters.c_conns;
        chunks = t.counters.c_chunks;
        bytes = t.counters.c_bytes;
        dropped_chunks = t.counters.c_dropped;
        dup_chunks = t.counters.c_dup;
        corrupted_chunks = t.counters.c_corrupted;
        truncated_chunks = t.counters.c_truncated;
        resets = t.counters.c_resets;
      })

let stop t =
  if not (Atomic.get t.stop_flag) then begin
    Atomic.set t.stop_flag true;
    (try ignore (Unix.write t.wake_w (Bytes.make 1 'x') 0 1)
     with Unix.Unix_error _ -> ());
    match t.domain with
    | Some d ->
      Domain.join d;
      t.domain <- None
    | None -> ()
  end
