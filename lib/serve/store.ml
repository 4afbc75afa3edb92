module Json = Rumor_obs.Json
module Wal = Rumor_faults.Wal

type entry = {
  query : Query.t;
  quantiles : float array;
  reps : int;
  finished : int;
  censored : int;
  failed : int;
  wall_s : float;
}

type slot = { entry : entry; mutable stamp : int }

type t = {
  dir : string;
  cap : int;
  fsync : bool;
  mutable wal : Wal.t;
  table : (string, slot) Hashtbl.t;
  mutable clock : int;  (* LRU stamp source; higher = fresher *)
  mutable evictions : int;
  mutable journal_total : int;  (* records in the WAL, live or not *)
}

let wal_path dir = Filename.concat dir "results.wal"

(* --- record codec ------------------------------------------------ *)

(* Floats ride as [%h] hex literals: the cache must hand back the
   replicate quantiles bit-for-bit, and a decimal round trip is a
   correctness question we simply never want to ask. *)
let hex_float f = Json.String (Printf.sprintf "%h" f)

let hex_floats l = Json.List (List.map hex_float l)

let of_hex_floats j =
  Option.bind (Json.to_list_opt j) (fun l ->
      List.fold_right
        (fun x acc ->
          match (acc, Option.bind (Json.to_string_opt x) float_of_string_opt) with
          | Some acc, Some f -> Some (f :: acc)
          | _ -> None)
        l (Some []))

let result_record fp e =
  Json.Obj
    [
      ("k", Json.String "result");
      ("fp", Json.String fp);
      ("reps", Json.Int e.reps);
      ("fin", Json.Int e.finished);
      ("cen", Json.Int e.censored);
      ("fail", Json.Int e.failed);
      ("wall", hex_float e.wall_s);
      ("qs", hex_floats (Array.to_list e.quantiles));
      ("query", Query.to_json e.query);
    ]

let evict_record fp =
  Json.Obj [ ("k", Json.String "evict"); ("fp", Json.String fp) ]

let entry_of_record j =
  let str f = Option.bind (Json.member f j) Json.to_string_opt in
  let int f = Option.bind (Json.member f j) Json.to_int_opt in
  let ( let* ) = Option.bind in
  let* fp = str "fp" in
  let* reps = int "reps" in
  let* finished = int "fin" in
  let* censored = int "cen" in
  let* failed = int "fail" in
  let* wall_s = Option.bind (str "wall") float_of_string_opt in
  let* qs = Option.bind (Json.member "qs" j) of_hex_floats in
  let* qj = Json.member "query" j in
  let* query = Result.to_option (Query.of_json qj) in
  Some
    ( fp,
      {
        query;
        quantiles = Array.of_list qs;
        reps;
        finished;
        censored;
        failed;
        wall_s;
      } )

(* --- replay / compaction ----------------------------------------- *)

let replay records =
  (* Later records win: a re-added fp after an evict is live again. *)
  let live = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun j ->
      match Option.bind (Json.member "k" j) Json.to_string_opt with
      | Some "result" -> (
        match entry_of_record j with
        | Some (fp, e) ->
          if not (Hashtbl.mem live fp) then order := fp :: !order;
          Hashtbl.replace live fp e
        | None -> ())
      | Some "evict" -> (
        match Option.bind (Json.member "fp" j) Json.to_string_opt with
        | Some fp ->
          Hashtbl.remove live fp;
          order := List.filter (fun f -> f <> fp) !order
        | None -> ())
      | _ -> ())
    records;
  (* [order] is newest-first insert order; oldest first for restamping. *)
  (live, List.rev !order)

let oldest t =
  Hashtbl.fold
    (fun fp slot acc ->
      match acc with
      | Some (_, stamp) when stamp <= slot.stamp -> acc
      | _ -> Some (fp, slot.stamp))
    t.table None

let compact t =
  (* Oldest first so replay order preserves LRU order. *)
  let slots =
    List.sort
      (fun (_, a) (_, b) -> compare a.stamp b.stamp)
      (Hashtbl.fold (fun fp slot acc -> (fp, slot) :: acc) t.table [])
  in
  Wal.close t.wal;
  Wal.rewrite (wal_path t.dir)
    (List.map (fun (fp, slot) -> result_record fp slot.entry) slots);
  t.wal <- Wal.open_ ~fsync:t.fsync (wal_path t.dir);
  t.journal_total <- List.length slots

let maybe_compact t =
  let live = Hashtbl.length t.table in
  if t.journal_total > 64 && live * 2 < t.journal_total then compact t

let evict_one t =
  match oldest t with
  | None -> ()
  | Some (fp, _) ->
    Hashtbl.remove t.table fp;
    Wal.append t.wal (evict_record fp);
    t.journal_total <- t.journal_total + 1;
    t.evictions <- t.evictions + 1

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_ ?(fsync = true) ?(cap = 512) ~dir () =
  if cap < 1 then invalid_arg "Store.open_: cap must be >= 1";
  mkdir_p dir;
  let wal = Wal.open_ ~fsync (wal_path dir) in
  let recovery = Wal.recovery wal in
  let live, order = replay recovery.Wal.records in
  let t =
    {
      dir;
      cap;
      fsync;
      wal;
      table = Hashtbl.create 64;
      clock = 0;
      evictions = 0;
      journal_total = List.length recovery.Wal.records;
    }
  in
  List.iter
    (fun fp ->
      match Hashtbl.find_opt live fp with
      | Some e ->
        t.clock <- t.clock + 1;
        Hashtbl.replace t.table fp { entry = e; stamp = t.clock }
      | None -> ())
    order;
  while Hashtbl.length t.table > t.cap do
    evict_one t
  done;
  (* A quarantined tail means lost records; rewrite a clean journal. *)
  if recovery.Wal.corrupt_records > 0 then compact t else maybe_compact t;
  t

let find t fp =
  match Hashtbl.find_opt t.table fp with
  | None -> None
  | Some slot ->
    t.clock <- t.clock + 1;
    slot.stamp <- t.clock;
    Some slot.entry

let add t fp entry =
  if not (Hashtbl.mem t.table fp) then begin
    while Hashtbl.length t.table >= t.cap do
      evict_one t
    done;
    t.clock <- t.clock + 1;
    Hashtbl.replace t.table fp { entry; stamp = t.clock };
    Wal.append t.wal (result_record fp entry);
    t.journal_total <- t.journal_total + 1;
    maybe_compact t
  end

let size t = Hashtbl.length t.table
let evictions t = t.evictions
let close t = Wal.close t.wal
