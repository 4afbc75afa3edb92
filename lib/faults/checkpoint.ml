type outcome =
  | Finished of float
  | Censored of float
  | Failed of string

(* Telemetry (lib/obs): checkpoint I/O is rare but precious — a resume
   that silently reloads nothing is exactly the regression these
   counters surface. *)
module Obs = Rumor_obs.Metrics
module Crc32 = Rumor_util.Crc32

let m_saves = Obs.counter "checkpoint.saves"
let m_loads = Obs.counter "checkpoint.loads"
let m_cached = Obs.counter "checkpoint.cached_outcomes"
let m_corrupt = Obs.counter "checkpoint.corrupt_lines"
let m_crc_mismatch = Obs.counter "checkpoint.crc_mismatches"
let m_bad_magic = Obs.counter "checkpoint.bad_magic"

let magic_v1 = "rumor-checkpoint v1"
let magic_v2 = "rumor-checkpoint v2"

let fingerprint rng = Rumor_rng.Rng.bits64 (Rumor_rng.Rng.copy rng)

let save path ~seeds ~outcomes =
  if Array.length seeds <> Array.length outcomes then
    invalid_arg "Checkpoint.save: seeds/outcomes length mismatch";
  (* Records first: the v2 header carries the CRC-32 of everything that
     follows it, so torn or bit-rotted payloads are detected on load. *)
  let buf = Buffer.create 256 in
  Array.iteri
    (fun i o ->
      match o with
      | None -> ()
      | Some (Finished t) ->
        Buffer.add_string buf (Printf.sprintf "%Lx finished %h\n" seeds.(i) t)
      | Some (Censored t) ->
        Buffer.add_string buf (Printf.sprintf "%Lx censored %h\n" seeds.(i) t)
      | Some (Failed msg) ->
        Buffer.add_string buf
          (Printf.sprintf "%Lx failed %s\n" seeds.(i) (String.escaped msg)))
    outcomes;
  let payload = Buffer.contents buf in
  let header =
    Printf.sprintf "%s crc32=%s\n" magic_v2 (Crc32.to_hex (Crc32.digest payload))
  in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc header;
      output_string oc payload;
      (* Durability before visibility: the data must be on disk before
         the rename publishes it, or a crash can leave a named file
         with garbage (or empty) contents. *)
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp path;
  (* Directory-entry durability: the rename itself must survive power
     loss, not just the bytes behind it. *)
  Rumor_util.Fsutil.fsync_parent_dir path;
  Obs.incr m_saves

let parse_line line =
  match String.index_opt line ' ' with
  | None -> None
  | Some i -> (
    let seed = String.sub line 0 i in
    let rest = String.sub line (i + 1) (String.length line - i - 1) in
    let kind, payload =
      match String.index_opt rest ' ' with
      | None -> (rest, "")
      | Some j ->
        (String.sub rest 0 j, String.sub rest (j + 1) (String.length rest - j - 1))
    in
    match Int64.of_string_opt ("0x" ^ seed) with
    | None -> None
    | Some seed -> (
      match kind with
      | "finished" ->
        Option.map (fun t -> (seed, Finished t)) (float_of_string_opt payload)
      | "censored" ->
        Option.map (fun t -> (seed, Censored t)) (float_of_string_opt payload)
      | "failed" -> (
        match Scanf.unescaped payload with
        | msg -> Some (seed, Failed msg)
        | exception _ -> Some (seed, Failed payload))
      | _ -> None))

(* Split on '\n', dropping the empty tail a trailing newline leaves; a
   torn final write shows up as a (malformed) last element instead. *)
let split_lines s =
  let lines = String.split_on_char '\n' s in
  match List.rev lines with "" :: rev -> List.rev rev | _ -> lines

let load path =
  let table = Hashtbl.create 64 in
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let contents =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> In_channel.input_all ic)
    in
    let header, payload =
      match String.index_opt contents '\n' with
      | None -> (contents, "")
      | Some i ->
        ( String.sub contents 0 i,
          String.sub contents (i + 1) (String.length contents - i - 1) )
    in
    let version =
      if header = magic_v1 then Some `V1
      else if
        String.length header >= String.length magic_v2
        && String.sub header 0 (String.length magic_v2) = magic_v2
      then Some (`V2 header)
      else None
    in
    match version with
    | None ->
      (* Wrong or missing magic: this is not (any version of) a
         checkpoint file.  Refuse it loudly rather than scavenging
         lines out of arbitrary data. *)
      Obs.incr m_bad_magic;
      Printf.eprintf
        "checkpoint: %s does not start with a checkpoint magic line \
         (found %S); ignoring the file\n\
         %!"
        path
        (if String.length header > 40 then String.sub header 0 40 ^ "..."
         else header)
    | Some version ->
      (match version with
      | `V1 -> ()
      | `V2 header -> (
        (* "rumor-checkpoint v2 crc32=<hex8>": verify the payload
           checksum; a mismatch downgrades to per-line parsing (each
           record is independently parseable) but is surfaced. *)
        let expected =
          let prefix = magic_v2 ^ " crc32=" in
          let pl = String.length prefix in
          if
            String.length header >= pl
            && String.sub header 0 pl = prefix
          then Crc32.of_hex (String.sub header pl (String.length header - pl))
          else None
        in
        match expected with
        | Some crc when crc = Crc32.digest payload -> ()
        | _ ->
          Obs.incr m_crc_mismatch;
          Printf.eprintf
            "checkpoint: %s payload fails its CRC-32; parsing what \
             survives line by line\n\
             %!"
            path));
      let corrupt = ref 0 in
      let first_bad = ref 0 in
      List.iteri
        (fun i line ->
          (* Line numbers are 1-based and count the header. *)
          let lineno = i + 2 in
          if line <> "" && line <> magic_v1 then
            match parse_line line with
            | Some (seed, o) -> Hashtbl.replace table seed o
            | None ->
              if !corrupt = 0 then first_bad := lineno;
              incr corrupt)
        (split_lines payload);
      if !corrupt > 0 then begin
        Obs.add m_corrupt !corrupt;
        Printf.eprintf
          "checkpoint: %s: %d unparseable line%s dropped (first at line %d) \
           — the affected replicates will re-run\n\
           %!"
          path !corrupt
          (if !corrupt = 1 then "" else "s")
          !first_bad
      end
  end;
  Obs.incr m_loads;
  Obs.add m_cached (Hashtbl.length table);
  table
