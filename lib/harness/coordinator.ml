module Pool = Rumor_par.Pool
module Obs = Rumor_obs.Metrics
module Clock = Rumor_obs.Clock
module Json = Rumor_obs.Json
module Rng = Rumor_rng.Rng
module Net = Rumor_util.Net

(* Telemetry (lib/obs): the process-supervision layer.  These are the
   numbers the chaos tests assert on — a recovery that silently loses
   a reassignment shows up here first. *)
let m_reassign = Obs.counter "harness.coord.reassignments"
let m_fences = Obs.counter "harness.coord.lease_fences"
let m_replay_fenced = Obs.counter "harness.coord.replay_fenced"
let m_deaths = Obs.counter "harness.coord.worker_deaths"
let m_restarts = Obs.counter "harness.coord.worker_restarts"
let m_chaos = Obs.counter "harness.coord.chaos_kills"
let m_stalled = Obs.counter "harness.coord.stalled_drops"
let m_remote_reconnects = Obs.counter "harness.coord.remote_reconnects"
let m_rejected = Obs.counter "harness.coord.rejected_hellos"
let h_beat_latency = Obs.histogram "harness.coord.heartbeat_latency_s"

type config = {
  dir : string;
  workers : int;
  min_workers : int;
  batch : int;
  resume : bool;
  heartbeat_timeout_s : float;
  chaos_kill_every_s : float option;
  retries : int;
  max_restarts : int;
  fail_budget : float;
  fsync : bool;
  seed : int;
  listen : (string * int) option;
  token : string option;
}

let default_config ~dir ~workers =
  {
    dir;
    workers;
    min_workers = 1;
    batch = 1;
    resume = false;
    heartbeat_timeout_s = 30.;
    chaos_kill_every_s = None;
    retries = 1;
    max_restarts = 3;
    fail_budget = 1.0;
    fsync = true;
    seed = 2020;
    listen = None;
    token = None;
  }

type worker_stats = {
  slot : int;
  restarts : int;
  chaos_kills : int;
  tasks_done : int;
  fenced : int;
  demoted : bool;
  remote : bool;
}

type summary = {
  outcomes : (string * Campaign.task_outcome) list;
  resumed : bool;
  interrupted : bool;
  aborted : bool;
  cached : int;
  retries : int;
  quarantined : int;
  reassignments : int;
  fences : int;
  replay_fenced : int;
  worker_deaths : int;
  worker_restarts : int;
  chaos_kills : int;
  stalled_drops : int;
  remote_reconnects : int;
  rejected : int;
  wal_corrupt_records : int;
  wall_s : float;
  workers : worker_stats list;
}

let manifest_path config = Filename.concat config.dir "campaign.manifest.json"
let port_path config = Filename.concat config.dir "coord.port"
let tasks_dir config = Filename.concat config.dir "tasks"
let output_path config task = Filename.concat (tasks_dir config) (task ^ ".out")

let rec mkdirs dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
  then begin
    mkdirs (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* sockaddr_un paths are capped around 104 bytes; a deeply nested
   campaign dir must not silently break the coordinator. *)
let socket_path config =
  let candidate = Filename.concat config.dir "coord.sock" in
  if String.length candidate < 100 then candidate
  else begin
    let tmp = Filename.temp_file "rumor-coord" ".sock" in
    Sys.remove tmp;
    tmp
  end

(* --- journal records ---

   Task records share Campaign's shape ({"k":"task",...}) extended
   with the fencing stamp; lease grant/reclaim records interleave so
   replay can re-run the fencing decisions; incident records make the
   failure history auditable. *)

let task_record id ev ~att ?wall ?err ?lease ?epoch ?worker () =
  Json.Obj
    ([ ("k", Json.String "task");
       ("id", Json.String id);
       ("ev", Json.String ev);
       ("att", Json.Int att) ]
    @ (match wall with
      | Some w -> [ ("wall", Json.String (Printf.sprintf "%h" w)) ]
      | None -> [])
    @ (match err with Some e -> [ ("err", Json.String e) ] | None -> [])
    @ (match lease with Some l -> [ ("lease", Json.Int l) ] | None -> [])
    @ (match epoch with Some e -> [ ("ep", Json.Int e) ] | None -> [])
    @ match worker with Some w -> [ ("w", Json.Int w) ] | None -> [])

let lease_record ev ~lease ~epoch ~worker ?(tasks = []) () =
  Json.Obj
    ([ ("k", Json.String "lease");
       ("ev", Json.String ev);
       ("lease", Json.Int lease);
       ("ep", Json.Int epoch);
       ("w", Json.Int worker) ]
    @
    if tasks = [] then []
    else [ ("tasks", Json.List (List.map (fun t -> Json.String t) tasks)) ])

let incident_record ev ~worker ?detail () =
  Json.Obj
    ([ ("k", Json.String "incident");
       ("ev", Json.String ev);
       ("w", Json.Int worker) ]
    @ match detail with Some d -> [ ("detail", Json.String d) ] | None -> [])

(* Replay: walk the journal in append order re-running the fencing
   decisions.  A done record is trusted only if its (lease, epoch)
   was granted and not reclaimed at that point in the log — and its
   canonical output file actually exists (the rename precedes the
   journal append, so a trusted record always has bytes behind it
   unless the operator deleted them; re-run in that case).  Also
   returns the journal's (lease id, epoch) high-water mark, above
   which this run's leases are stamped. *)
let replay_done config records =
  let replay = Lease.Replay.create () in
  let done_ = Hashtbl.create 16 in
  let fenced = ref 0 in
  let high = ref (0, 0) in
  List.iter
    (fun j ->
      let str field = Option.bind (Json.member field j) Json.to_string_opt in
      let int field = Option.bind (Json.member field j) Json.to_int_opt in
      (match (int "lease", int "ep") with
      | Some l, Some e ->
        let hl, he = !high in
        high := (Int.max hl l, Int.max he e)
      | _ -> ());
      match (str "k", str "ev") with
      | Some "lease", Some "grant" -> (
        match (int "lease", int "ep") with
        | Some lease_id, Some epoch ->
          Lease.Replay.note_grant replay ~lease_id ~epoch
        | _ -> ())
      | Some "lease", Some "reclaim" -> (
        match int "lease" with
        | Some lease_id -> Lease.Replay.note_reclaim replay ~lease_id
        | None -> ())
      | Some "task", Some "done" -> (
        match str "id" with
        | None -> ()
        | Some id -> (
          match (int "lease", int "ep") with
          | Some lease_id, Some epoch -> (
            match Lease.Replay.check_done replay ~lease_id ~epoch with
            | `Trusted ->
              if Sys.file_exists (output_path config id) then
                Hashtbl.replace done_ id ()
            | `Fenced ->
              incr fenced;
              Obs.incr m_replay_fenced)
          | _ ->
            (* Stampless done record: a single-process campaign journal
               (PR 5).  Trust it — there were no processes to fence. *)
            Hashtbl.replace done_ id ()))
      | _ -> ())
    records;
  (done_, !fenced, !high)

(* --- per-slot worker state --- *)

(* One connection from a worker.  [tcp] marks a link accepted on the
   TCP listener, the only place the campaign token is checked; the
   reader carries the CRC mode negotiated at admission.  [grants]
   counts grants sent on the link and [short] the idle reports in a
   row that were short of them (see [Proto.Idle]). *)
type link = {
  fd : Unix.file_descr;
  reader : Proto.reader;
  tcp : bool;
  mutable grants : int;
  mutable short : int;
}

type incarnation = {
  pid : int option;
      (* the process forked for a local slot; None for a TCP joiner *)
  mutable link : link option;
      (* None: not admitted yet, or disconnected and awaiting resume *)
  mutable admitted : bool;  (* welcomed once: a later welcome is a resume *)
  mutable last_seen : float;
}

(* A local slot differs from a remote one only in its incarnation
   owning a pid. *)
type wslot = {
  slot : int;
  mutable inc : incarnation option;  (* current incarnation, if any *)
  mutable lease : int option;
  mutable restarts : int;
  mutable chaos_kills : int;
  mutable tasks_done : int;
  mutable fenced : int;
  mutable demoted : bool;
  mutable chaos_pending : bool;  (* next death is ours, not the slot's *)
}

let new_slot slot =
  {
    slot;
    inc = None;
    lease = None;
    restarts = 0;
    chaos_kills = 0;
    tasks_done = 0;
    fenced = 0;
    demoted = false;
    chaos_pending = false;
  }

(* A link no slot owns: a fresh accept whose first frame must be a
   hello, or a declared-dead worker's link kept draining so that its
   late (fenced) writes are observed. *)
type stray = {
  s_link : link;
  zombie : bool;
  s_pid : int option;  (* a zombie's process, reaped once its link ends *)
}

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let kill_quiet signal pid =
  if pid > 0 then try Unix.kill pid signal with Unix.Unix_error _ -> ()

let send_link l msg =
  Proto.send ~crc:(Proto.crc_enabled l.reader) l.fd (Proto.to_json msg)

let rec wait_child pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_child pid
  | exception Unix.Unix_error _ -> ()

let run ?(cancel = Pool.global) ~spawn (config : config) task_ids =
  if config.workers < 0 then
    invalid_arg "Coordinator.run: negative worker count";
  if config.workers < 1 && config.listen = None then
    invalid_arg "Coordinator.run: need at least one worker (or a listen address)";
  if config.batch < 1 then invalid_arg "Coordinator.run: batch must be >= 1";
  mkdirs config.dir;
  mkdirs (tasks_dir config);
  let wal_file = Campaign.wal_file config.dir in
  if not config.resume then begin
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      [ wal_file; Wal.quarantine_path wal_file ];
    Array.iter
      (fun e -> Sys.remove (Filename.concat (tasks_dir config) e))
      (try Sys.readdir (tasks_dir config) with Sys_error _ -> [||])
  end;
  let resumed = config.resume && Sys.file_exists wal_file in
  let wal = Wal.open_ ~fsync:config.fsync wal_file in
  let recovery = Wal.recovery wal in
  let finished, replay_fenced, high_water =
    replay_done config recovery.Wal.records
  in
  let n_tasks = List.length task_ids in
  (* Final per-task outcomes; a task is open until its slot is filled. *)
  let outcomes : (string, Campaign.task_outcome) Hashtbl.t =
    Hashtbl.create 16
  in
  let cached = ref 0 in
  let queue = Queue.create () in
  List.iter
    (fun id ->
      if Hashtbl.mem finished id then begin
        Hashtbl.replace outcomes id Campaign.Cached;
        incr cached
      end
      else Queue.add id queue)
    task_ids;
  let remaining = ref (Queue.length queue) in
  (* Chaos progress guarantee: once a task has been chaos-reassigned
     this many times, its current holder is immune to further chaos
     kills — otherwise a task longer than the kill interval livelocks
     (holder killed, reassigned, killed again, forever). *)
  let chaos_task_cap = 5 in
  (* Uncharged reassignments (chaos kills, TCP peers timing out) do not
     burn the task's retry budget, so a task bouncing off a flapping
     network link needs its own bound or the campaign livelocks. *)
  let uncharged_cap = 25 in
  let chaos_reassigns : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let attempts : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let attempt_of id = 1 + Option.value ~default:0 (Hashtbl.find_opt attempts id) in
  let leases = Lease.create ~after:high_water () in
  let retries = ref 0 in
  let quarantined = ref 0 in
  let reassignments = ref 0 in
  let fences = ref 0 in
  let worker_deaths = ref 0 in
  let worker_restarts = ref 0 in
  let chaos_kills = ref 0 in
  let stalled_drops = ref 0 in
  let remote_reconnects = ref 0 in
  let rejected = ref 0 in
  let aborted = ref false in
  let interrupted = ref false in
  let t0 = Clock.now_s () in
  (* --- socket plumbing --- *)
  let sock_path = socket_path config in
  if Sys.file_exists sock_path then Sys.remove sock_path;
  let backlog = Int.max 16 (2 * config.workers) in
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX sock_path);
  Unix.listen listen_fd backlog;
  let tcp_listen =
    match config.listen with
    | None -> None
    | Some (host, port) ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Net.resolve_exn host, port));
      Unix.listen fd backlog;
      (* The bound port (authoritative when the config said port 0)
         is published for workers and scripts to discover. *)
      let bound =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> port
      in
      Wal.write_atomic (port_path config) (string_of_int bound ^ "\n");
      Some fd
  in
  (* A worker dying mid-send must surface as EPIPE, not SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let slots = Array.init config.workers new_slot in
  (* TCP workers: slots created at admission, ids from [next_remote]
     (above the local range so the two can never collide). *)
  let remotes : (int, wslot) Hashtbl.t = Hashtbl.create 8 in
  let next_remote = ref config.workers in
  let all_slots () =
    Array.to_list slots
    @ (Hashtbl.fold (fun _ w acc -> w :: acc) remotes []
      |> List.sort (fun a b -> compare a.slot b.slot))
  in
  let strays : stray list ref = ref [] in
  let drop_stray fd =
    strays := List.filter (fun x -> x.s_link.fd <> fd) !strays
  in
  (* Dead children of ours whose WNOHANG reap raced the exit: swept
     every loop iteration until collected.  Only pids this coordinator
     spawned or killed go here — a waitpid(-1) sweep would steal exit
     statuses from children the embedding process forked for its own
     purposes (a test harness's own TCP workers, say). *)
  let reapable : int list ref = ref [] in
  let reap_later pid =
    if pid > 0 then
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> reapable := pid :: !reapable
      | _ -> ()
      | exception Unix.Unix_error (_, _, _) -> ()
  in
  let sweep_reapable () =
    reapable :=
      List.filter
        (fun pid ->
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> true
          | _ -> false
          | exception Unix.Unix_error (_, _, _) -> false)
        !reapable
  in
  let spawn_slot w =
    let pid = spawn ~slot:w.slot ~socket:sock_path in
    w.inc <-
      Some
        {
          pid = Some pid;
          link = None;
          admitted = false;
          last_seen = Clock.now_s ();
        }
  in
  Array.iter spawn_slot slots;
  let chaos_rng = Rng.create config.seed in
  let next_chaos =
    ref
      (match config.chaos_kill_every_s with
      | Some d -> Clock.now_s () +. d
      | None -> infinity)
  in
  let live_slots () =
    (* Local slots only: [min_workers] and chaos target the processes
       this coordinator owns, not remote peers that come and go. *)
    Array.to_list slots
    |> List.filter (fun w -> (not w.demoted) && Option.is_some w.inc)
  in
  let journal rec_ = Wal.append wal rec_ in
  (* Quarantine a task: its slot in the outcome table is final. *)
  let quarantine id err =
    Hashtbl.replace outcomes id (Campaign.Quarantined err);
    incr quarantined;
    decr remaining;
    journal (task_record id "quarantined" ~att:(attempt_of id - 1) ~err ());
    if
      float_of_int !quarantined > config.fail_budget *. float_of_int n_tasks
    then aborted := true
  in
  (* Return a task to the queue after a failure or a reclaimed lease.
     [charge] is false for chaos-inflicted deaths and TCP peers that
     fell silent: exogenous faults prove the machinery and must not
     burn the task's budget. *)
  let requeue ~charge ~why id =
    if charge then begin
      Hashtbl.replace attempts id (attempt_of id);
      if attempt_of id > config.retries + 1 then
        quarantine id (Printf.sprintf "retry budget exhausted (%s)" why)
      else begin
        Queue.add id queue;
        incr reassignments;
        Obs.incr m_reassign
      end
    end
    else begin
      let n =
        1 + Option.value ~default:0 (Hashtbl.find_opt chaos_reassigns id)
      in
      Hashtbl.replace chaos_reassigns id n;
      if n > uncharged_cap then
        quarantine id
          (Printf.sprintf "excessive uncharged reassignments (%s)" why)
      else begin
        Queue.add id queue;
        incr reassignments;
        Obs.incr m_reassign
      end
    end
  in
  let reclaim_lease ~charge w why =
    match w.lease with
    | None -> ()
    | Some lease_id ->
      let pending = Lease.reclaim leases ~lease_id in
      w.lease <- None;
      journal
        (lease_record "reclaim" ~lease:lease_id ~epoch:(Lease.epoch leases)
           ~worker:w.slot ());
      List.iter (fun id -> requeue ~charge ~why id) pending
  in
  (* EOF, a broken stream or a failed send: the link is gone, but the
     worker may be alive and about to resume, so its lease stays held.
     Whether it died is for its pid (local) or the heartbeat timeout
     (both) to say. *)
  let disconnect inc =
    match inc.link with
    | Some l ->
      close_quiet l.fd;
      inc.link <- None
    | None -> ()
  in
  (* Death: the slot's process exited ([exited]: already reaped) or
     the heartbeat timeout fired.  Reclaim, journal, and respawn
     within budget.  A still-open link keeps draining as a zombie
     stray (the process may be alive and about to write something
     stale, which must fence).  A TCP slot has no process to kill or
     respawn, and its silence is presumed a network fault: uncharged,
     like a chaos kill; the peer may still come back and resume its
     id. *)
  let declare_dead ?(exited = false) ~ev w =
    match w.inc with
    | None -> ()
    | Some inc ->
      w.inc <- None;
      (match inc.link with
      | Some l ->
        strays := { s_link = l; zombie = true; s_pid = inc.pid } :: !strays
      | None ->
        if not exited then
          Option.iter
            (fun pid ->
              kill_quiet Sys.sigkill pid;
              reap_later pid)
            inc.pid);
      journal (incident_record ev ~worker:w.slot ());
      let chaos = w.chaos_pending in
      w.chaos_pending <- false;
      if chaos then begin
        incr chaos_kills;
        w.chaos_kills <- w.chaos_kills + 1;
        Obs.incr m_chaos
      end
      else begin
        incr worker_deaths;
        w.restarts <- w.restarts + 1;
        Obs.incr m_deaths
      end;
      reclaim_lease ~charge:((not chaos) && inc.pid <> None) w ev;
      if inc.pid <> None then begin
        if (not chaos) && w.restarts > config.max_restarts then begin
          w.demoted <- true;
          journal (incident_record "demoted" ~worker:w.slot ())
        end
        else if !remaining > 0 && not (Pool.is_cancelled cancel) then begin
          spawn_slot w;
          incr worker_restarts;
          Obs.incr m_restarts;
          journal (incident_record "restart" ~worker:w.slot ())
        end;
        if List.length (live_slots ()) < config.min_workers then begin
          aborted := true;
          journal (incident_record "min_workers_abort" ~worker:w.slot ())
        end
      end
  in
  let accept_result w_opt = function
    | Proto.Result
        {
          lease = lease_id; epoch; task; ok; wall_s; file; err; transient;
          data; _;
        } -> (
        let file = Filename.basename file in
        let partial = Filename.concat (tasks_dir config) file in
        match Lease.complete leases ~lease_id ~epoch ~task with
        | `Fenced ->
          incr fences;
          Obs.incr m_fences;
          (match w_opt with Some w -> w.fenced <- w.fenced + 1 | None -> ());
          journal
            (incident_record "fence"
               ~worker:(match w_opt with Some w -> w.slot | None -> -1)
               ~detail:
                 (Printf.sprintf "task %s lease %d ep %d" task lease_id
                    epoch)
               ());
          if Sys.file_exists partial then Sys.remove partial
        | `Unknown_task ->
          journal
            (incident_record "unknown_task"
               ~worker:(match w_opt with Some w -> w.slot | None -> -1)
               ~detail:task ());
          if Sys.file_exists partial then Sys.remove partial
        | `Ok ->
          (match w_opt with
          | Some w ->
            if Lease.active leases ~lease_id = None then w.lease <- None
          | None -> ());
          (* A TCP result carries its bytes inline (the coordinator
             cannot read the worker's filesystem): materialize them where
             a Unix-socket worker would have written the stamped partial.  Only
             on the trusted path — a fenced frame's bytes are never
             written anywhere. *)
          (match data with
          | Some d when ok -> Wal.write_atomic partial d
          | _ -> ());
          if ok && Sys.file_exists partial then begin
            (* Rename before journaling: a trusted done record always has
               its canonical bytes on disk. *)
            Sys.rename partial (output_path config task);
            Rumor_util.Fsutil.fsync_parent_dir (output_path config task);
            Hashtbl.replace outcomes task (Campaign.Done wall_s);
            decr remaining;
            (match w_opt with
            | Some w -> w.tasks_done <- w.tasks_done + 1
            | None -> ());
            journal
              (task_record task "done" ~att:(attempt_of task) ~wall:wall_s
                 ~lease:lease_id ~epoch
                 ?worker:(Option.map (fun w -> w.slot) w_opt)
                 ())
          end
          else begin
            if Sys.file_exists partial then Sys.remove partial;
            let err =
              Option.value err
                ~default:(if ok then "output file missing" else "failed")
            in
            let transient = transient || ok (* lost output: environmental *) in
            if transient && attempt_of task <= config.retries then begin
              incr retries;
              journal (task_record task "retry" ~att:(attempt_of task) ~err ());
              requeue ~charge:true ~why:"transient failure" task
            end
            else quarantine task err
          end)
    | _ -> () (* beats and the like carry no result *)
  in
  let slot_of_worker_id w =
    if w >= 0 && w < Array.length slots then Some slots.(w)
    else Hashtbl.find_opt remotes w
  in
  let send_grant w l { Lease.id; epoch; tasks; _ } =
    l.grants <- l.grants + 1;
    l.short <- 0;
    try send_link l (Proto.Grant { lease = id; epoch; tasks })
    with Unix.Unix_error _ | Sys_error _ -> Option.iter disconnect w.inc
  in
  let regrant w l (lease : Lease.lease) why =
    journal
      (incident_record "regrant" ~worker:w.slot
         ~detail:
           (Printf.sprintf "lease %d ep %d (%s)" lease.Lease.id
              lease.Lease.epoch why)
         ());
    send_grant w l lease
  in
  let active_lease w =
    Option.bind w.lease (fun lease_id -> Lease.active leases ~lease_id)
  in
  let grant_work () =
    if not (Pool.is_cancelled cancel || !aborted) then
      List.iter
        (fun w ->
          match w.inc with
          | Some { link = Some l; _ }
            when (not w.demoted) && w.lease = None
                 && not (Queue.is_empty queue) ->
            let batch = ref [] in
            let n = min config.batch (Queue.length queue) in
            for _ = 1 to n do
              batch := Queue.pop queue :: !batch
            done;
            let lease = Lease.grant leases ~worker:w.slot (List.rev !batch) in
            (* Journal the grant before sending it: replay must know
               every lease the worker could possibly stamp. *)
            journal
              (lease_record "grant" ~lease:lease.Lease.id
                 ~epoch:lease.Lease.epoch ~worker:w.slot
                 ~tasks:lease.Lease.tasks ());
            w.lease <- Some lease.Lease.id;
            send_grant w l lease
          | _ -> ())
        (all_slots ())
  in
  let reject l ~worker reason =
    incr rejected;
    Obs.incr m_rejected;
    journal (incident_record "hello_rejected" ~worker ~detail:reason ());
    (try send_link l (Proto.Reject { reason })
     with Unix.Unix_error _ | Sys_error _ -> ());
    close_quiet l.fd
  in
  (* The one admission path, for both listeners.  The version is
     checked at the door, and the token on TCP links, so a stray
     worker from another campaign never touches a lease.  A hello
     naming a local slot must carry the pid of that slot's current
     process: an orphan of an earlier coordinator cannot take a slot
     after --resume.  Any other id names a TCP slot — a known one
     resumes, an unknown explicit one is honoured (a worker resuming
     across a coordinator restart), -1 gets the next free id.  The
     welcome, like the hello, is sent without a CRC trailer; the
     negotiated mode starts with the next frame in both directions. *)
  let admit l ~worker ~pid ~proto ~token ~crc =
    let target =
      if proto <> Proto.version then
        Error
          (Printf.sprintf
             "unsupported protocol version %d (coordinator speaks %d)" proto
             Proto.version)
      else if l.tcp && not (config.token = None || config.token = token) then
        Error "bad campaign token"
      else if worker >= 0 && worker < config.workers then
        match slots.(worker).inc with
        | Some inc when inc.pid = Some pid -> Ok (slots.(worker), inc)
        | _ ->
          Error
            (Printf.sprintf "pid %d is not the current process of local slot %d"
               pid worker)
      else begin
        let w =
          match Hashtbl.find_opt remotes worker with
          | Some w -> w
          | None ->
            let id = if worker >= 0 then worker else !next_remote in
            next_remote := Int.max !next_remote (id + 1);
            let w = new_slot id in
            Hashtbl.replace remotes id w;
            w
        in
        match w.inc with
        | Some inc -> Ok (w, inc)
        | None ->
          let inc =
            {
              pid = None;
              link = None;
              admitted = false;
              last_seen = Clock.now_s ();
            }
          in
          w.inc <- Some inc;
          Ok (w, inc)
      end
    in
    match target with
    | Error reason -> reject l ~worker reason
    | Ok (w, inc) -> (
      match
        send_link l
          (Proto.Welcome { worker = w.slot; proto = Proto.version; crc })
      with
      | exception (Unix.Unix_error _ | Sys_error _) -> close_quiet l.fd
      | () -> (
        disconnect inc (* a half-open previous link is superseded *);
        Proto.set_crc l.reader crc;
        inc.link <- Some l;
        inc.last_seen <- Clock.now_s ();
        if inc.admitted then begin
          incr remote_reconnects;
          Obs.incr m_remote_reconnects;
          journal (incident_record "reconnect" ~worker:w.slot ())
        end
        else if inc.pid = None then
          journal (incident_record "remote_join" ~worker:w.slot ());
        inc.admitted <- true;
        (* A grant may have died with the old link, which would
           deadlock the pair (coordinator waiting for results, worker
           for work).  Re-send the active batch: the worker re-sends
           the results it still holds and runs the rest. *)
        match active_lease w with
        | None -> w.lease <- None
        | Some lease -> regrant w l lease "resume"))
  in
  let chunk = Bytes.create 65536 in
  (* Read what is there into the link's reader; [false] on EOF or a
     dead socket. *)
  let read_link l =
    match Unix.read l.fd chunk 0 (Bytes.length chunk) with
    | 0 -> false
    | n ->
      Proto.feed l.reader chunk n;
      true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
    | exception Unix.Unix_error _ -> false
  in
  let rec frames l f =
    match Proto.next l.reader with
    | Some j ->
      if f (Proto.of_json j) then frames l f
    | None -> ()
  in
  let pump_slot w inc l =
    match
      if read_link l then
        frames l (fun msg ->
            let now = Clock.now_s () in
            (match msg with
            | Some (Proto.Beat _) ->
              Obs.observe h_beat_latency (now -. inc.last_seen);
              l.short <- 0
            | Some (Proto.Idle { grants; _ }) -> (
              Obs.observe h_beat_latency (now -. inc.last_seen);
              (* Idle with work outstanding: every result sent before
                 this frame has been read, so if the worker processed
                 every grant, one of its results vanished; if it is
                 short of them twice in a row, a grant did. *)
              match active_lease w with
              | None -> l.short <- 0
              | Some lease ->
                if grants >= l.grants then regrant w l lease "result lost"
                else begin
                  l.short <- l.short + 1;
                  if l.short >= 2 then begin
                    (* The regrant replaces the lost grant in the count. *)
                    l.grants <- l.grants - 1;
                    regrant w l lease "grant lost"
                  end
                end)
            | Some m -> accept_result (Some w) m
            | None -> ());
            inc.last_seen <- now;
            true)
      else disconnect inc
    with
    | () -> ()
    | exception Proto.Protocol_error _ ->
      (* Corrupted or desynchronized stream (a CRC mismatch lands
         here): cut the link; the worker reconnects and resumes. *)
      disconnect inc
  in
  let pump_stray s =
    let l = s.s_link in
    let gone () =
      close_quiet l.fd;
      Option.iter reap_later s.s_pid;
      drop_stray l.fd
    in
    match
      if read_link l then
        frames l (fun msg ->
            match (s.zombie, msg) with
            | false, Some (Proto.Hello { worker; pid; proto; token; crc }) ->
              drop_stray l.fd;
              admit l ~worker ~pid ~proto ~token ~crc;
              false
            | false, _ ->
              drop_stray l.fd;
              reject l ~worker:(-1) "first frame is not a protocol hello";
              false
            | true, Some (Proto.Result { worker; _ } as m) ->
              (* A zombie's late result: its lease was reclaimed when it
                 was declared dead, so this fences — attributed to the
                 slot. *)
              accept_result (slot_of_worker_id worker) m;
              true
            | true, _ -> true (* zombie beats: ignore *))
      else gone ()
    with
    | () -> ()
    | exception Proto.Protocol_error _ -> gone ()
  in
  let finished_campaign () =
    !remaining = 0 && Lease.outstanding leases = 0
  in
  let cleanup () =
    close_quiet listen_fd;
    Option.iter close_quiet tcp_listen;
    (* Stop every slot at once, then wait for all their hang-ups
       against one deadline: teardown costs one round trip, not one
       per worker. *)
    let links =
      List.filter_map
        (fun w -> Option.bind w.inc (fun inc -> inc.link))
        (all_slots ())
    in
    List.iter
      (fun l ->
        try send_link l Proto.Stop with Unix.Unix_error _ | Sys_error _ -> ())
      links;
    let deadline = Clock.now_s () +. 2.0 in
    let rec await = function
      | [] -> ()
      | pending ->
        let wait = deadline -. Clock.now_s () in
        if wait > 0. then begin
          let ready =
            match Unix.select (List.map (fun l -> l.fd) pending) [] [] wait with
            | r, _, _ -> r
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
          in
          await
            (List.filter
               (fun l -> (not (List.mem l.fd ready)) || read_link l)
               pending)
        end
    in
    await links;
    List.iter (fun l -> close_quiet l.fd) links;
    List.iter (fun s -> close_quiet s.s_link.fd) !strays;
    (* Reap every process this coordinator forked, SIGKILLing the ones
       still running. *)
    List.filter_map (fun w -> Option.bind w.inc (fun inc -> inc.pid))
      (Array.to_list slots)
    @ List.filter_map (fun s -> s.s_pid) !strays
    @ !reapable
    |> List.sort_uniq compare
    |> List.iter (fun pid ->
           match Unix.waitpid [ Unix.WNOHANG ] pid with
           | 0, _ ->
             kill_quiet Sys.sigkill pid;
             wait_child pid
           | _ -> ()
           | exception Unix.Unix_error _ -> ());
    if Sys.file_exists sock_path then Sys.remove sock_path;
    if Sys.file_exists (port_path config) then Sys.remove (port_path config);
    (* Stale stamped partials (fenced or never-accepted writes) must
       not survive into a byte-compare of the tasks directory. *)
    Array.iter
      (fun e ->
        if String.length e > 0 && e.[0] = '.' then
          try Sys.remove (Filename.concat (tasks_dir config) e)
          with Sys_error _ -> ())
      (try Sys.readdir (tasks_dir config) with Sys_error _ -> [||]);
    Wal.close wal
  in
  Fun.protect ~finally:cleanup (fun () ->
      let drained_since_cancel = ref 0. in
      while
        (not (finished_campaign ()))
        && (not !aborted)
        &&
        if Pool.is_cancelled cancel then begin
          if !drained_since_cancel = 0. then
            drained_since_cancel := Clock.now_s ();
          interrupted := true;
          (* Drain: in-flight leases finish (workers are between-task
             cancellable only at batch granularity), bounded so a hung
             worker cannot wedge the shutdown. *)
          Lease.outstanding leases > 0
          && Clock.now_s () -. !drained_since_cancel
             < config.heartbeat_timeout_s
        end
        else true
      do
        grant_work ();
        let now = Clock.now_s () in
        (* A local worker that lost its link is either dying (its pid
           is about to exit) or reconnecting: look again soon. *)
        let poll =
          if
            Array.exists
              (fun w ->
                match w.inc with
                | Some { link = None; admitted = true; _ } -> true
                | _ -> false)
              slots
          then 0.005
          else 0.2
        in
        let timeout = Float.max 0.001 (Float.min (!next_chaos -. now) poll) in
        let listeners = listen_fd :: Option.to_list tcp_listen in
        let watched =
          listeners
          @ List.filter_map
              (fun w ->
                Option.bind w.inc (fun inc ->
                    Option.map (fun l -> l.fd) inc.link))
              (all_slots ())
          @ List.map (fun s -> s.s_link.fd) !strays
        in
        let readable, _, _ =
          match Unix.select watched [] [] timeout with
          | r -> r
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        in
        (* Links first, accepts last: a descriptor closed while
           handling one link can then never be reused, within this
           pass, by an accept. *)
        List.iter
          (fun fd ->
            if not (List.mem fd listeners) then
              match
                List.find_map
                  (fun w ->
                    match w.inc with
                    | Some ({ link = Some l; _ } as inc) when l.fd = fd ->
                      Some (w, inc, l)
                    | _ -> None)
                  (all_slots ())
              with
              | Some (w, inc, l) -> pump_slot w inc l
              | None ->
                Option.iter pump_stray
                  (List.find_opt (fun s -> s.s_link.fd = fd) !strays))
          readable;
        List.iter
          (fun fd ->
            if List.mem fd readable then
              match Unix.accept ~cloexec:true fd with
              | conn_fd, _ ->
                let tcp = Some fd = tcp_listen in
                if tcp then Net.tune_stream_socket conn_fd;
                strays :=
                  {
                    s_link =
                      {
                        fd = conn_fd;
                        reader = Proto.reader ();
                        tcp;
                        grants = 0;
                        short = 0;
                      };
                    zombie = false;
                    s_pid = None;
                  }
                  :: !strays
              | exception Unix.Unix_error (_, _, _) -> ())
          listeners;
        (* Death is a pid exit.  A dead worker's link reads EOF first,
           so only incarnations without a link (not admitted yet, or
           disconnected) are polled. *)
        Array.iter
          (fun w ->
            match w.inc with
            | Some { pid = Some pid; link = None; _ } -> (
              match Unix.waitpid [ Unix.WNOHANG ] pid with
              | 0, _ -> ()
              | _ -> declare_dead ~exited:true ~ev:"worker_death" w
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
              | exception Unix.Unix_error _ ->
                declare_dead ~exited:true ~ev:"worker_death" w)
            | _ -> ())
          slots;
        (* Heartbeat deadlines, the backstop for death and disconnect
           alike: silence past the timeout means dead — hung, or gone
           without a trace.  A link still open survives as a zombie
           stray so late writes are fenced rather than lost. *)
        let now = Clock.now_s () in
        List.iter
          (fun w ->
            match w.inc with
            | Some inc when now -. inc.last_seen > config.heartbeat_timeout_s
              ->
              declare_dead ~ev:"heartbeat_timeout" w
            | _ -> ())
          (all_slots ());
        (* Stalled strays: a half-open connection holding bytes of an
           incomplete frame — or a fresh accept that never said hello —
           past the heartbeat timeout is dropped, or it would pin its
           select slot forever.  Quiet zombies at a clean frame
           boundary stay: they exist so late writes fence. *)
        (let timeout = config.heartbeat_timeout_s in
         let dropped, kept =
           List.partition
             (fun s ->
               Proto.stalled s.s_link.reader ~now ~timeout
               || (s.s_pid = None && Proto.age s.s_link.reader ~now > timeout))
             !strays
         in
         if dropped <> [] then begin
           strays := kept;
           List.iter
             (fun s ->
               incr stalled_drops;
               Obs.incr m_stalled;
               journal
                 (incident_record "stalled_drop" ~worker:(-1)
                    ?detail:
                      (Option.map (Printf.sprintf "zombie pid %d") s.s_pid)
                    ());
               close_quiet s.s_link.fd;
               Option.iter reap_later s.s_pid)
             dropped
         end);
        (* Reap exited children: the WNOHANG at kill time can race the
           SIGKILL, so sweep the coordinator's own dead pids every
           iteration or defunct processes pile up across a long chaos
           run.  Never waitpid(-1) here: it would also collect — and
           so destroy the exit status of — children the embedding
           process forked for itself. *)
        sweep_reapable ();
        (* Chaos: SIGKILL a random live worker, lease held or not —
           that is the scenario the recovery machinery exists for. *)
        if now >= !next_chaos && not (Pool.is_cancelled cancel) then begin
          (match config.chaos_kill_every_s with
          | Some d -> next_chaos := now +. d
          | None -> next_chaos := infinity);
          let victims =
            List.filter
              (fun w ->
                match w.inc with
                | Some { link = Some _; _ } -> (
                  match w.lease with
                  | None -> true
                  | Some lease_id -> (
                    match Lease.active leases ~lease_id with
                    | None -> true
                    | Some l ->
                      List.for_all
                        (fun t ->
                          Option.value ~default:0
                            (Hashtbl.find_opt chaos_reassigns t)
                          < chaos_task_cap)
                        l.Lease.tasks))
                | _ -> false)
              (live_slots ())
          in
          match victims with
          | [] -> ()
          | _ ->
            let w = List.nth victims (Rng.int chaos_rng (List.length victims)) in
            Option.iter
              (fun inc ->
                w.chaos_pending <- true;
                journal (incident_record "chaos_kill" ~worker:w.slot ());
                Option.iter (kill_quiet Sys.sigkill) inc.pid)
              w.inc
        end
      done;
      (* Tasks never decided: shutdown or abort upstream. *)
      List.iter
        (fun id ->
          if not (Hashtbl.mem outcomes id) then
            Hashtbl.replace outcomes id
              (if !interrupted then Campaign.Interrupted else Campaign.Not_run))
        task_ids);
  let summary =
    {
      outcomes =
        List.map
          (fun id ->
            ( id,
              Option.value ~default:Campaign.Not_run
                (Hashtbl.find_opt outcomes id) ))
          task_ids;
      resumed;
      interrupted = !interrupted || Pool.is_cancelled cancel;
      aborted = !aborted;
      cached = !cached;
      retries = !retries;
      quarantined = !quarantined;
      reassignments = !reassignments;
      fences = !fences;
      replay_fenced;
      worker_deaths = !worker_deaths;
      worker_restarts = !worker_restarts;
      chaos_kills = !chaos_kills;
      stalled_drops = !stalled_drops;
      remote_reconnects = !remote_reconnects;
      rejected = !rejected;
      wal_corrupt_records = recovery.Wal.corrupt_records;
      wall_s = Clock.now_s () -. t0;
      workers =
        List.map
          (fun w ->
            {
              slot = w.slot;
              restarts = w.restarts;
              chaos_kills = w.chaos_kills;
              tasks_done = w.tasks_done;
              fenced = w.fenced;
              demoted = w.demoted;
              remote = w.slot >= config.workers;
            })
          (all_slots ());
    }
  in
  let manifest =
    Json.Obj
      ([
        ("schema", Json.String "rumor-campaign/2");
        ("workers", Json.Int config.workers);
        ("resumed", Json.Bool summary.resumed);
        ("interrupted", Json.Bool summary.interrupted);
        ("aborted", Json.Bool summary.aborted);
        ("cached", Json.Int summary.cached);
        ("retries", Json.Int summary.retries);
        ("quarantined", Json.Int summary.quarantined);
        ("reassignments", Json.Int summary.reassignments);
        ("lease_fences", Json.Int summary.fences);
        ("replay_fenced", Json.Int summary.replay_fenced);
        ("worker_deaths", Json.Int summary.worker_deaths);
        ("worker_restarts", Json.Int summary.worker_restarts);
        ("chaos_kills", Json.Int summary.chaos_kills);
        ("stalled_drops", Json.Int summary.stalled_drops);
        ("remote_reconnects", Json.Int summary.remote_reconnects);
        ("rejected_hellos", Json.Int summary.rejected);
        ("wal_corrupt_records", Json.Int summary.wal_corrupt_records);
        ("wall_s", Json.Float summary.wall_s);
        ( "tasks",
          Json.Obj
            (List.map
               (fun (id, o) ->
                 ( id,
                   Json.String
                     (match o with
                     | Campaign.Done _ -> "done"
                     | Campaign.Cached -> "cached"
                     | Campaign.Quarantined _ -> "quarantined"
                     | Campaign.Interrupted -> "interrupted"
                     | Campaign.Not_run -> "not-run") ))
               summary.outcomes) );
        ( "worker_stats",
          Json.List
            (List.map
               (fun (w : worker_stats) ->
                 Json.Obj
                   [
                     ("slot", Json.Int w.slot);
                     ("restarts", Json.Int w.restarts);
                     ("chaos_kills", Json.Int w.chaos_kills);
                     ("tasks_done", Json.Int w.tasks_done);
                     ("fenced", Json.Int w.fenced);
                     ("demoted", Json.Bool w.demoted);
                     ("remote", Json.Bool w.remote);
                   ])
               summary.workers) );
      ]
      @ Provenance.manifest_fields ())
  in
  Wal.write_atomic (manifest_path config)
    (Json.to_string ~pretty:true manifest ^ "\n");
  summary

let exit_code summary =
  if summary.aborted || summary.quarantined > 0 then 1 else 0
