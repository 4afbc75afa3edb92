module Json = Rumor_obs.Json
module Crc32 = Rumor_util.Crc32

exception Protocol_error of string

let version = 2

(* Result frames may inline a task's captured output (the TCP
   transport ships bytes instead of relying on a shared filesystem),
   so the cap is sized for data frames, not just control frames. *)
let max_frame = 1 lsl 23

(* --- framing --- *)

let be32 buf off n =
  Bytes.set_uint8 buf off ((n lsr 24) land 0xff);
  Bytes.set_uint8 buf (off + 1) ((n lsr 16) land 0xff);
  Bytes.set_uint8 buf (off + 2) ((n lsr 8) land 0xff);
  Bytes.set_uint8 buf (off + 3) (n land 0xff)

let frame ?(crc = false) json =
  let payload = Json.to_string json in
  let n = String.length payload in
  if n > max_frame then
    raise (Protocol_error (Printf.sprintf "outgoing frame of %d bytes" n));
  let trailer = if crc then 4 else 0 in
  let frame = Bytes.create (4 + n + trailer) in
  be32 frame 0 n;
  Bytes.blit_string payload 0 frame 4 n;
  if crc then
    be32 frame (4 + n)
      (Int32.to_int (Crc32.digest payload) land 0xffffffff);
  frame

let send ?crc fd json =
  let frame = frame ?crc json in
  let len = Bytes.length frame in
  let written = ref 0 in
  while !written < len do
    written := !written + Unix.write fd frame !written (len - !written)
  done

type reader = {
  mutable buf : Buffer.t;
  mutable last_progress : float;
  mutable crc : bool;
}

let reader () =
  {
    buf = Buffer.create 256;
    last_progress = Rumor_obs.Clock.now_s ();
    crc = false;
  }

let set_crc r on = r.crc <- on

let crc_enabled r = r.crc

let feed r bytes n =
  if n > 0 then begin
    Buffer.add_subbytes r.buf bytes 0 n;
    r.last_progress <- Rumor_obs.Clock.now_s ()
  end

let trailer_len r = if r.crc then 4 else 0

(* Is a complete frame sitting in the buffer?  A length prefix beyond
   [max_frame] counts as "complete" so that [stalled] never masks what
   [next] will report as a protocol error. *)
let has_frame r =
  let len = Buffer.length r.buf in
  len >= 4
  &&
  let b i = Char.code (Buffer.nth r.buf i) in
  let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  n > max_frame || len >= 4 + n + trailer_len r

let pending r = Buffer.length r.buf > 0 && not (has_frame r)

let age r ~now = Float.max 0. (now -. r.last_progress)

let stalled r ~now ~timeout = pending r && age r ~now > timeout

let next r =
  let len = Buffer.length r.buf in
  if len < 4 then None
  else begin
    let b i = Char.code (Buffer.nth r.buf i) in
    let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
    if n > max_frame then
      raise (Protocol_error (Printf.sprintf "frame length %d exceeds %d" n max_frame));
    let trailer = trailer_len r in
    if len < 4 + n + trailer then None
    else begin
      let payload = Buffer.sub r.buf 4 n in
      (if r.crc then begin
         let t i = Char.code (Buffer.nth r.buf (4 + n + i)) in
         let advertised =
           (t 0 lsl 24) lor (t 1 lsl 16) lor (t 2 lsl 8) lor t 3
         in
         let computed = Int32.to_int (Crc32.digest payload) land 0xffffffff in
         if advertised <> computed then
           raise
             (Protocol_error
                (Printf.sprintf "frame CRC mismatch (got %08x, computed %08x)"
                   advertised computed))
       end);
      let total = 4 + n + trailer in
      let rest = Buffer.sub r.buf total (len - total) in
      Buffer.clear r.buf;
      Buffer.add_string r.buf rest;
      match Json.parse payload with
      | Ok j -> Some j
      | Error e -> raise (Protocol_error ("bad frame payload: " ^ e))
    end
  end

(* [deadline] bounds the whole wait (a handshake that must answer in
   time); [stall_timeout] bounds only a partial frame's silence, so an
   idle connection with an empty buffer waits indefinitely.  Either
   way the wait is one [select] per read, never a polling slice. *)
let recv ?deadline ?stall_timeout fd r =
  let chunk = Bytes.create 65536 in
  let rec go () =
    match next r with
    | Some _ as frame -> frame
    | None ->
      let now = Rumor_obs.Clock.now_s () in
      let wait =
        Float.min
          (match deadline with Some d -> d -. now | None -> infinity)
          (match stall_timeout with
          | Some s when pending r -> s -. age r ~now
          | _ -> infinity)
      in
      if wait <= 0. then raise (Protocol_error "receive timed out")
      else if
        wait < infinity
        &&
        match Unix.select [ fd ] [] [] wait with
        | ready, _, _ -> ready = []
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
      then go ()
      else begin
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> None
        | n ->
          feed r chunk n;
          go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      end
  in
  go ()

(* --- messages --- *)

type msg =
  | Hello of {
      worker : int;
      pid : int;
      proto : int;
      token : string option;
      crc : bool;
    }
  | Welcome of { worker : int; proto : int; crc : bool }
  | Reject of { reason : string }
  | Beat of { worker : int }
  | Idle of { worker : int; grants : int }
  | Result of {
      worker : int;
      lease : int;
      epoch : int;
      task : string;
      ok : bool;
      wall_s : float;
      file : string;
      err : string option;
      transient : bool;
      data : string option;
    }
  | Grant of { lease : int; epoch : int; tasks : string list }
  | Stop

let to_json = function
  | Hello { worker; pid; proto; token; crc } ->
    Json.Obj
      ([ ("k", Json.String "hello"); ("w", Json.Int worker);
         ("pid", Json.Int pid); ("v", Json.Int proto); ("crc", Json.Bool crc) ]
      @ match token with Some t -> [ ("tok", Json.String t) ] | None -> [])
  | Welcome { worker; proto; crc } ->
    Json.Obj
      [ ("k", Json.String "welcome"); ("w", Json.Int worker);
        ("v", Json.Int proto); ("crc", Json.Bool crc) ]
  | Reject { reason } ->
    Json.Obj [ ("k", Json.String "reject"); ("err", Json.String reason) ]
  | Beat { worker } ->
    Json.Obj [ ("k", Json.String "beat"); ("w", Json.Int worker) ]
  | Idle { worker; grants } ->
    Json.Obj
      [ ("k", Json.String "idle"); ("w", Json.Int worker); ("g", Json.Int grants) ]
  | Result { worker; lease; epoch; task; ok; wall_s; file; err; transient; data }
    ->
    Json.Obj
      ([ ("k", Json.String "res");
         ("w", Json.Int worker);
         ("lease", Json.Int lease);
         ("ep", Json.Int epoch);
         ("task", Json.String task);
         ("ok", Json.Bool ok);
         ("wall", Json.String (Printf.sprintf "%h" wall_s));
         ("file", Json.String file) ]
      @ (match err with Some e -> [ ("err", Json.String e) ] | None -> [])
      @ (if ok then []
         else
           [ ("cls", Json.String (if transient then "transient" else "poison")) ])
      @ match data with Some d -> [ ("data", Json.String d) ] | None -> [])
  | Grant { lease; epoch; tasks } ->
    Json.Obj
      [ ("k", Json.String "grant");
        ("lease", Json.Int lease);
        ("ep", Json.Int epoch);
        ("tasks", Json.List (List.map (fun t -> Json.String t) tasks)) ]
  | Stop -> Json.Obj [ ("k", Json.String "stop") ]

let of_json j =
  let str field = Option.bind (Json.member field j) Json.to_string_opt in
  let int field = Option.bind (Json.member field j) Json.to_int_opt in
  let bool field =
    match Json.member field j with Some (Json.Bool b) -> Some b | _ -> None
  in
  let ( let* ) = Option.bind in
  match str "k" with
  | Some "hello" ->
    let* worker = int "w" in
    let* pid = int "pid" in
    let* proto = int "v" in
    let* crc = bool "crc" in
    Some (Hello { worker; pid; proto; token = str "tok"; crc })
  | Some "welcome" ->
    let* worker = int "w" in
    let* proto = int "v" in
    let* crc = bool "crc" in
    Some (Welcome { worker; proto; crc })
  | Some "reject" ->
    let* reason = str "err" in
    Some (Reject { reason })
  | Some "beat" ->
    let* worker = int "w" in
    Some (Beat { worker })
  | Some "idle" ->
    let* worker = int "w" in
    let* grants = int "g" in
    Some (Idle { worker; grants })
  | Some "res" ->
    let* worker = int "w" in
    let* lease = int "lease" in
    let* epoch = int "ep" in
    let* task = str "task" in
    let* ok = bool "ok" in
    let* wall_s = Option.bind (str "wall") float_of_string_opt in
    let* file = str "file" in
    Some
      (Result
         {
           worker;
           lease;
           epoch;
           task;
           ok;
           wall_s;
           file;
           err = str "err";
           transient = str "cls" = Some "transient";
           data = str "data";
         })
  | Some "grant" ->
    let* lease = int "lease" in
    let* epoch = int "ep" in
    let* tasks =
      match Json.member "tasks" j with
      | Some (Json.List l) ->
        List.fold_right
          (fun t acc ->
            match (Json.to_string_opt t, acc) with
            | Some s, Some acc -> Some (s :: acc)
            | _ -> None)
          l (Some [])
      | _ -> None
    in
    Some (Grant { lease; epoch; tasks })
  | Some "stop" -> Some Stop
  | _ -> None
