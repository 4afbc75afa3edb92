module Json = Rumor_obs.Json
module Obs = Rumor_obs.Metrics
module Crc32 = Rumor_util.Crc32

let magic = "rumor-wal/1"

(* Telemetry (lib/obs): recovery accounting for the campaign journal.
   [wal_corrupt_records] is the load-bearing one — the acceptance
   tests assert it is nonzero whenever a record was quarantined. *)
let m_corrupt = Obs.counter "harness.wal_corrupt_records"
let m_appends = Obs.counter "harness.wal_appends"
let m_recovered = Obs.counter "harness.wal_recovered_records"

exception Bad_magic of { path : string; found : string }

type recovery = {
  records : Json.t list;
  corrupt_records : int;
  truncated_tail : bool;
  existed : bool;
}

type t = {
  fsync : bool;
  lock : Mutex.t;
  mutable oc : out_channel option;
  recovery : recovery;
}

let quarantine_path path = path ^ ".quarantine"
let recovery t = t.recovery

let sync_channel oc =
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc)

let write_atomic path content =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc content;
      sync_channel oc);
  Sys.rename tmp path;
  (* The rename lives in the directory inode: without this, power loss
     can roll the publication back even though the contents synced. *)
  Rumor_util.Fsutil.fsync_parent_dir path

(* --- record framing --- *)

let render_record rec_ =
  let payload = Json.to_string rec_ in
  "{\"crc\":\"" ^ Crc32.to_hex (Crc32.digest payload) ^ "\",\"rec\":" ^ payload
  ^ "}"

(* CRC over the canonical compact rendering of the payload: verified by
   re-rendering the parsed payload, exact because the codec's
   renderings are canonical. *)
let parse_record line =
  match Json.parse line with
  | Error _ -> None
  | Ok v -> (
    match (Json.member "crc" v, Json.member "rec" v) with
    | Some crc_j, Some rec_ -> (
      match Option.bind (Json.to_string_opt crc_j) Crc32.of_hex with
      | Some crc when Crc32.digest (Json.to_string rec_) = crc -> Some rec_
      | _ -> None)
    | _ -> None)

(* --- scanning --- *)

type scan = {
  valid : (string * Json.t) list;  (* (line, payload), append order *)
  corrupt : string list;  (* quarantined lines, append order *)
  torn : bool;
  terminated : bool;  (* final line carried its newline *)
}

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> In_channel.input_all ic)

(* [content] is the whole file.  The header line must be [magic]; the
   body is one record per line.  A final line without its newline is a
   torn append — kept if its CRC still verifies (only the newline was
   lost), quarantined otherwise. *)
let scan_content ~path content =
  let header, body =
    match String.index_opt content '\n' with
    | None -> (content, "")
    | Some i ->
      ( String.sub content 0 i,
        String.sub content (i + 1) (String.length content - i - 1) )
  in
  if header <> magic then raise (Bad_magic { path; found = header });
  let terminated =
    String.length body = 0 || body.[String.length body - 1] = '\n'
  in
  let lines = String.split_on_char '\n' body in
  (* split_on_char leaves a trailing "" when the body is newline-
     terminated; otherwise the last element is the torn fragment. *)
  let n = List.length lines in
  let valid = ref [] and corrupt = ref [] and torn = ref false in
  List.iteri
    (fun i line ->
      let is_last = i = n - 1 in
      if line = "" then ()
      else
        match parse_record line with
        | Some rec_ -> valid := (line, rec_) :: !valid
        | None ->
          corrupt := line :: !corrupt;
          if is_last && not terminated then torn := true)
    lines;
  {
    valid = List.rev !valid;
    corrupt = List.rev !corrupt;
    torn = !torn;
    terminated;
  }

let recovery_of_scan ~existed scan =
  {
    records = List.map snd scan.valid;
    corrupt_records = List.length scan.corrupt;
    truncated_tail = scan.torn;
    existed;
  }

let read path =
  if not (Sys.file_exists path) then
    { records = []; corrupt_records = 0; truncated_tail = false;
      existed = false }
  else recovery_of_scan ~existed:true (scan_content ~path (read_all path))

(* --- opening: create, or recover and compact --- *)

let quarantine ~fsync path lines =
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644
      (quarantine_path path)
  in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun line ->
          output_string oc line;
          output_char oc '\n')
        lines;
      if fsync then sync_channel oc)

let open_ ?(fsync = true) path =
  let existed = Sys.file_exists path in
  let recovery =
    if not existed then begin
      write_atomic path (magic ^ "\n");
      { records = []; corrupt_records = 0; truncated_tail = false;
        existed = false }
    end
    else begin
      let scan = scan_content ~path (read_all path) in
      if scan.corrupt <> [] || not scan.terminated then begin
        (* Never silently drop: untrusted lines move to the quarantine
           file, then the log is compacted down to what verified so
           the next crash starts from a clean file.  Compaction also
           re-terminates a torn-but-verifying tail (its newline was
           lost) so later appends start on a fresh line. *)
        if scan.corrupt <> [] then begin
          quarantine ~fsync path scan.corrupt;
          Obs.add m_corrupt (List.length scan.corrupt);
          Printf.eprintf
            "rumor: warning: WAL %s: quarantined %d corrupt record%s%s to %s\n%!"
            path
            (List.length scan.corrupt)
            (if List.length scan.corrupt = 1 then "" else "s")
            (if scan.torn then " (torn tail)" else "")
            (quarantine_path path)
        end;
        let buf = Buffer.create 4096 in
        Buffer.add_string buf magic;
        Buffer.add_char buf '\n';
        List.iter
          (fun (line, _) ->
            Buffer.add_string buf line;
            Buffer.add_char buf '\n')
          scan.valid;
        write_atomic path (Buffer.contents buf)
      end;
      Obs.add m_recovered (List.length scan.valid);
      recovery_of_scan ~existed:true scan
    end
  in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  { fsync; lock = Mutex.create (); oc = Some oc; recovery }

let append t rec_ =
  let line = render_record rec_ ^ "\n" in
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      match t.oc with
      | None -> invalid_arg "Wal.append: log is closed"
      | Some oc ->
        output_string oc line;
        flush oc;
        if t.fsync then Unix.fsync (Unix.descr_of_out_channel oc));
  Obs.incr m_appends

let close t =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      match t.oc with
      | None -> ()
      | Some oc ->
        t.oc <- None;
        (try sync_channel oc with
        | Sys_error _ | Unix.Unix_error (_, _, _) -> ());
        close_out_noerr oc)
