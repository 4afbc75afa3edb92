type outcome =
  | Finished of float
  | Censored of float
  | Failed of string

(* Telemetry (lib/obs): a resume that silently reloads nothing is the
   regression these surface.  [Wal] counts appends and quarantines. *)
module Obs = Rumor_obs.Metrics
module Json = Rumor_obs.Json

let m_saves = Obs.counter "checkpoint.saves"
let m_loads = Obs.counter "checkpoint.loads"
let m_cached = Obs.counter "checkpoint.cached_outcomes"
let m_bad_magic = Obs.counter "checkpoint.bad_magic"

let fingerprint rng = Rumor_rng.Rng.bits64 (Rumor_rng.Rng.copy rng)

(* --- record codec: {"out":[[seed, kind, value], ...]} --- *)

let encode seed o =
  let kind, value =
    match o with
    | Finished t -> ("finished", Printf.sprintf "%h" t)
    | Censored t -> ("censored", Printf.sprintf "%h" t)
    | Failed msg -> ("failed", msg)
  in
  Json.List (List.map (fun s -> Json.String s) [ Printf.sprintf "%Lx" seed; kind; value ])

let decode = function
  | Json.List [ Json.String seed; Json.String kind; Json.String value ] -> (
    match (Int64.of_string_opt ("0x" ^ seed), kind, float_of_string_opt value) with
    | Some seed, "finished", Some t -> Some (seed, Finished t)
    | Some seed, "censored", Some t -> Some (seed, Censored t)
    | Some seed, "failed", _ -> Some (seed, Failed value)
    | _ -> None)
  | _ -> None

let table_of records =
  let table = Hashtbl.create 64 in
  let add j = Option.iter (fun (seed, o) -> Hashtbl.replace table seed o) (decode j) in
  List.iter
    (fun r ->
      match Json.member "out" r with
      | Some (Json.List l) -> List.iter add l
      | _ -> ())
    records;
  table

let save path ~seeds ~outcomes =
  if Array.length seeds <> Array.length outcomes then
    invalid_arg "Checkpoint.save: seeds/outcomes length mismatch";
  (* One record of the outcomes [known] lacks, in index order: its
     bytes never depend on how many outcomes came before. *)
  let write_fresh known write =
    let fresh =
      List.filter_map
        (fun i ->
          match outcomes.(i) with
          | Some o when not (known seeds.(i)) -> Some (encode seeds.(i) o)
          | _ -> None)
        (List.init (Array.length seeds) Fun.id)
    in
    if fresh <> [] then write (Json.Obj [ ("out", Json.List fresh) ])
  in
  (match if Sys.file_exists path then Some (Wal.open_ path) else None with
  | None | (exception Wal.Bad_magic _) ->
    (* Missing, or not a WAL ([load] already warned): publish a fresh
       log, header and record in one atomic write. *)
    write_fresh (fun _ -> false) (fun r -> Wal.rewrite path [ r ])
  | Some wal ->
    Fun.protect
      ~finally:(fun () -> Wal.close wal)
      (fun () ->
        let known = table_of (Wal.recovery wal).records in
        write_fresh (Hashtbl.mem known) (Wal.append wal)));
  Obs.incr m_saves

let load path =
  let table =
    match Wal.read path with
    | recovery -> table_of recovery.records
    | exception Wal.Bad_magic { found; _ } ->
      (* Legacy [rumor-checkpoint] or foreign: outcomes are a pure
         function of (seed, index), so ignoring it costs recompute. *)
      Obs.incr m_bad_magic;
      Printf.eprintf
        "checkpoint: %s is not a rumor-wal/1 log (found %S); ignoring it\n%!"
        path
        (if String.length found > 40 then String.sub found 0 40 ^ "..." else found);
      Hashtbl.create 1
  in
  Obs.incr m_loads;
  Obs.add m_cached (Hashtbl.length table);
  table
