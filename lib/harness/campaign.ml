module Pool = Rumor_par.Pool
module Run = Rumor_sim.Run
module Obs = Rumor_obs.Metrics
module Clock = Rumor_obs.Clock
module Json = Rumor_obs.Json

(* Telemetry (lib/obs): task attempts retried and tasks quarantined. *)
let m_retries = Obs.counter "harness.retries"
let m_quarantined = Obs.counter "harness.quarantined"

type classification = Transient | Poison

(* Transient = the environment may behave differently next time;
   poison = a deterministic task would fail identically forever
   (retrying it burns the budget and hides the bug). *)
let default_classify = function
  | Sys_error _ | Unix.Unix_error (_, _, _) | Out_of_memory -> Transient
  | _ -> Poison

type task = {
  id : string;
  run : unit -> unit;
}

type task_outcome =
  | Done of float
  | Cached
  | Quarantined of string
  | Interrupted
  | Not_run

type config = {
  dir : string;
  resume : bool;
  deadline_s : float option;
  retries : int;
  backoff_s : float;
  fail_budget : float;
  fsync : bool;
  classify : exn -> classification;
}

let default_config ~dir =
  {
    dir;
    resume = false;
    deadline_s = None;
    retries = 1;
    backoff_s = 0.5;
    fail_budget = 1.0;
    fsync = true;
    classify = default_classify;
  }

type summary = {
  outcomes : (string * task_outcome) list;
  resumed : bool;
  interrupted : bool;
  aborted : bool;
  retries : int;
  quarantined : int;
  wal_corrupt_records : int;
  wall_s : float;
}

let wal_file dir = Filename.concat dir "campaign.wal"
let manifest_path config = Filename.concat config.dir "campaign.manifest.json"

let rec mkdirs dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
  then begin
    mkdirs (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let install_signal_handlers () =
  (* One atomic store, no allocation — safe from a signal handler.
     The pools drain cooperatively; the campaign loop then observes
     the cancelled token between (and after) tasks.

     Idempotent: the first signal starts the drain; a second signal
     means the operator is done waiting for it, so it hard-exits the
     process immediately (128 + SIGINT, the conventional status)
     instead of re-running the drain path.  [Unix._exit] skips
     [at_exit] — nothing that could block or re-enter runs. *)
  let handler =
    Sys.Signal_handle
      (fun _ ->
        if Pool.is_cancelled Pool.global then Unix._exit 130
        else Pool.cancel Pool.global)
  in
  List.iter
    (fun signal ->
      try Sys.set_signal signal handler
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ]

(* --- journal records ---

   {"k":"task","id":"E1","ev":"done","att":1,"wall":"<%h>"}

   Events: started, retry (with err), done, quarantined (with err),
   interrupted.  Only "done" short-circuits a resume: a quarantined
   or interrupted task gets a fresh chance. *)

let task_to_json id ev ~att ?wall ?err () =
  Json.Obj
    ([ ("k", Json.String "task");
       ("id", Json.String id);
       ("ev", Json.String ev);
       ("att", Json.Int att) ]
    @ (match wall with
      | Some w -> [ ("wall", Json.String (Printf.sprintf "%h" w)) ]
      | None -> [])
    @ match err with Some e -> [ ("err", Json.String e) ] | None -> [])

let done_ids records =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun j ->
      let str field = Option.bind (Json.member field j) Json.to_string_opt in
      match (str "k", str "id", str "ev") with
      | Some "task", Some id, Some "done" -> Hashtbl.replace tbl id ()
      | _ -> ())
    records;
  tbl

let outcome_status = function
  | Done _ -> "done"
  | Cached -> "cached"
  | Quarantined _ -> "quarantined"
  | Interrupted -> "interrupted"
  | Not_run -> "not-run"

let write_manifest config summary =
  let manifest =
    Json.Obj
      ([
        ("schema", Json.String "rumor-campaign/1");
        ("resumed", Json.Bool summary.resumed);
        ("interrupted", Json.Bool summary.interrupted);
        ("aborted", Json.Bool summary.aborted);
        ("retries", Json.Int summary.retries);
        ("quarantined", Json.Int summary.quarantined);
        ("wal_corrupt_records", Json.Int summary.wal_corrupt_records);
        ("wall_s", Json.Float summary.wall_s);
        ( "tasks",
          Json.Obj
            (List.map
               (fun (id, o) -> (id, Json.String (outcome_status o)))
               summary.outcomes) );
      ]
      @ Provenance.manifest_fields ())
  in
  Wal.write_atomic (manifest_path config)
    (Json.to_string ~pretty:true manifest ^ "\n")

let run ?(cancel = Pool.global) config tasks =
  mkdirs config.dir;
  let wal_file = wal_file config.dir in
  if not config.resume then
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      [ wal_file; Wal.quarantine_path wal_file ];
  let resumed = config.resume && Sys.file_exists wal_file in
  let wal = Wal.open_ ~fsync:config.fsync wal_file in
  let recovery = Wal.recovery wal in
  let finished = done_ids recovery.Wal.records in
  let n_tasks = List.length tasks in
  let retries = ref 0 in
  let quarantined = ref 0 in
  let interrupted = ref false in
  let aborted = ref false in
  let t0 = Clock.now_s () in
  let previous_deadline = Run.default_deadline () in
  Run.set_default_deadline config.deadline_s;
  let outcomes =
    Fun.protect
      ~finally:(fun () ->
        Run.set_default_deadline previous_deadline;
        Wal.close wal)
      (fun () ->
        List.map
          (fun task ->
            let outcome =
              if Pool.is_cancelled cancel then begin
                interrupted := true;
                Not_run
              end
              else if !aborted then Not_run
              else if Hashtbl.mem finished task.id then Cached
              else begin
                let rec attempt k =
                  Wal.append wal (task_to_json task.id "started" ~att:k ());
                  let started = Clock.now_s () in
                  match task.run () with
                  | () ->
                    if Pool.is_cancelled cancel then begin
                      (* The pools drained mid-task: whatever the task
                         printed is partial.  Shutdown, not failure —
                         resume re-runs it from its seed. *)
                      interrupted := true;
                      Wal.append wal
                        (task_to_json task.id "interrupted" ~att:k ());
                      Interrupted
                    end
                    else begin
                      let wall = Clock.now_s () -. started in
                      Wal.append wal
                        (task_to_json task.id "done" ~att:k ~wall ());
                      Done wall
                    end
                  | exception e ->
                    if Pool.is_cancelled cancel then begin
                      (* A drained pool can surface as an exception from
                         code holding partial data; attribute it to the
                         shutdown, never to the task. *)
                      interrupted := true;
                      Wal.append wal
                        (task_to_json task.id "interrupted" ~att:k ());
                      Interrupted
                    end
                    else begin
                      let err = Printexc.to_string e in
                      match config.classify e with
                      | Transient when k <= config.retries ->
                        incr retries;
                        Obs.incr m_retries;
                        Wal.append wal
                          (task_to_json task.id "retry" ~att:k ~err ());
                        (* Retry backoff before the next attempt. *)
                        if config.backoff_s > 0. then
                          Unix.sleepf
                            (Float.min 30.
                               (config.backoff_s
                               *. (2. ** float_of_int (k - 1))));
                        attempt (k + 1)
                      | _ ->
                        incr quarantined;
                        Obs.incr m_quarantined;
                        Wal.append wal
                          (task_to_json task.id "quarantined" ~att:k ~err ());
                        Quarantined err
                    end
                in
                let o = attempt 1 in
                (match o with
                | Quarantined _
                  when float_of_int !quarantined
                       > config.fail_budget *. float_of_int n_tasks ->
                  aborted := true
                | _ -> ());
                o
              end
            in
            (task.id, outcome))
          tasks)
  in
  let summary =
    {
      outcomes;
      resumed;
      interrupted = !interrupted || Pool.is_cancelled cancel;
      aborted = !aborted;
      retries = !retries;
      quarantined = !quarantined;
      wal_corrupt_records = recovery.Wal.corrupt_records;
      wall_s = Clock.now_s () -. t0;
    }
  in
  write_manifest config summary;
  summary

let exit_code summary =
  if summary.aborted || summary.quarantined > 0 then 1 else 0
