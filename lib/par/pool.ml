module Env = Rumor_util.Env
module Obs = Rumor_obs

(* Telemetry (lib/obs): pool usage per process.  Deliberately no
   job-count gauge here — the registry snapshot must stay
   byte-identical for any [jobs] (the runners' determinism contract);
   the actual parallelism of a run is recorded in its manifest from
   {!last}. *)
let m_runs = Obs.Metrics.counter "par.runs"
let m_tasks = Obs.Metrics.counter "par.tasks"

type stats = {
  jobs : int;
  tasks : int;
  chunk : int array;
  wall_s : float array;
  cancelled : bool;
}

(* Cooperative cancellation: a token is a one-way-settable flag the
   chunk loops poll between tasks.  Cancelling never interrupts the
   task in flight — it only stops further tasks from starting — so a
   cancelled pool still drains cleanly and [run] still returns stats.
   [global] is additionally polled by every pool in the process; the
   harness's signal handlers cancel it for graceful shutdown. *)
type token = bool Atomic.t

let token () = Atomic.make false

let cancel t = Atomic.set t true

let is_cancelled t = Atomic.get t

let reset t = Atomic.set t false

let global : token = token ()

let nproc () = Domain.recommended_domain_count ()

let override : int option Atomic.t = Atomic.make None

let set_default_jobs = function
  | Some j when j < 1 ->
    invalid_arg "Par.Pool.set_default_jobs: jobs must be at least 1"
  | v -> Atomic.set override v

let default_jobs () =
  match Atomic.get override with
  | Some j -> j
  | None ->
    let j = Env.int ~default:(nproc ()) "RUMOR_JOBS" in
    if j < 1 then nproc () else j

let resolve ?jobs n =
  let j =
    match jobs with
    | Some j ->
      if j < 1 then invalid_arg "Par.Pool: jobs must be at least 1" else j
    | None -> default_jobs ()
  in
  max 1 (min j n)

(* Balanced contiguous chunks: domain d of j over n tasks owns
   [d*n/j, (d+1)*n/j) — sizes differ by at most one, and the index ->
   domain map depends only on (n, j). *)
let chunk_bounds ~jobs ~n d = (d * n / jobs, (d + 1) * n / jobs)

(* --- persistent helper domains ---

   A helper is a domain parked on its own condition variable between
   runs.  Helpers belong to the domain that first needed them (a
   domain-local free list), so a nested [run] inside a pool body, or
   [run]s on two domains at once, never wait on or share one another's
   helpers: a run checks out [jobs - 1] free helpers of its calling
   domain, spawning any that are missing, and checks them back in when
   every chunk is done.  A domain's free helpers are stopped and joined
   when that domain exits.  Reusing domains instead of spawning and
   joining them per run keeps the major heap from growing with the
   number of runs. *)

type slot = Idle | Job of (unit -> unit) | Done | Quit

type helper = {
  lock : Mutex.t;
  wake : Condition.t;
  mutable slot : slot;
  mutable domain : unit Domain.t option;
}

let live_helpers = Atomic.make 0

let helpers () = Atomic.get live_helpers

(* [Idle]/[Done] park the helper; the caller owns the [Done] -> [Idle]
   transition in [await].  Jobs never raise: [run] wraps each chunk. *)
let helper_loop h =
  Mutex.lock h.lock;
  let rec loop () =
    match h.slot with
    | Idle | Done ->
      Condition.wait h.wake h.lock;
      loop ()
    | Job f ->
      Mutex.unlock h.lock;
      f ();
      Mutex.lock h.lock;
      h.slot <- Done;
      Condition.broadcast h.wake;
      loop ()
    | Quit -> Mutex.unlock h.lock
  in
  loop ()

let set_slot h s =
  Mutex.lock h.lock;
  h.slot <- s;
  Condition.broadcast h.wake;
  Mutex.unlock h.lock

let await h =
  Mutex.lock h.lock;
  while match h.slot with Done -> false | _ -> true do
    Condition.wait h.wake h.lock
  done;
  h.slot <- Idle;
  Mutex.unlock h.lock

let stop h =
  set_slot h Quit;
  Option.iter Domain.join h.domain;
  Atomic.decr live_helpers

let spawn_helper () =
  let h =
    { lock = Mutex.create (); wake = Condition.create (); slot = Idle; domain = None }
  in
  h.domain <- Some (Domain.spawn (fun () -> helper_loop h));
  Atomic.incr live_helpers;
  h

let free_helpers : helper list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let free = ref [] in
      Domain.at_exit (fun () ->
          let hs = !free in
          free := [];
          List.iter stop hs);
      free)

let checkin hs =
  let free = Domain.DLS.get free_helpers in
  free := List.rev_append hs !free

(* [k] helpers owned by the calling domain, none of them in use.  If a
   spawn fails (the runtime's domain limit), the ones already taken go
   back to the free list. *)
let checkout k =
  let free = Domain.DLS.get free_helpers in
  let taken = ref [] in
  (try
     for _ = 1 to k do
       match !free with
       | h :: rest ->
         free := rest;
         taken := h :: !taken
       | [] -> taken := spawn_helper () :: !taken
     done
   with e ->
     checkin !taken;
     raise e);
  Array.of_list !taken

let last_stats : stats option Atomic.t = Atomic.make None

let last () = Atomic.get last_stats

let run ?jobs ?cancel n body =
  if n < 0 then invalid_arg "Par.Pool.run: negative task count";
  let jobs = resolve ?jobs n in
  let wall = Array.make jobs 0. in
  (* Polled between tasks only — one or two atomic loads per task, and
     never mid-task, so a cancelled pool drains its in-flight work. *)
  let stop () =
    Atomic.get global
    || (match cancel with Some t -> Atomic.get t | None -> false)
  in
  let was_cancelled = Atomic.make false in
  let exec d =
    let t0 = Obs.Clock.now_s () in
    Fun.protect
      ~finally:(fun () -> wall.(d) <- Obs.Clock.now_s () -. t0)
      (fun () ->
        let lo, hi = chunk_bounds ~jobs ~n d in
        let i = ref lo in
        while !i < hi && not (stop ()) do
          body ~domain:d !i;
          incr i
        done;
        if !i < hi then Atomic.set was_cancelled true)
  in
  (* The lowest failing domain index wins, whatever the arrival order,
     so the re-raised exception is deterministic. *)
  let failure : (int * exn) option Atomic.t = Atomic.make None in
  let note d e =
    let rec loop () =
      match Atomic.get failure with
      | Some (d', _) when d' <= d -> ()
      | cur ->
        if not (Atomic.compare_and_set failure cur (Some (d, e))) then loop ()
    in
    loop ()
  in
  if jobs = 1 then (match exec 0 with () -> () | exception e -> note 0 e)
  else begin
    let workers = checkout (jobs - 1) in
    Array.iteri
      (fun i h ->
        let d = i + 1 in
        set_slot h (Job (fun () -> match exec d with () -> () | exception e -> note d e)))
      workers;
    (* Every chunk is awaited even if the main chunk raises something
       fatal outside [exec] (it cannot: [exec] catches). *)
    Fun.protect
      ~finally:(fun () ->
        Array.iter await workers;
        checkin (Array.to_list workers))
      (fun () -> match exec 0 with () -> () | exception e -> note 0 e)
  end;
  let chunk =
    Array.init jobs (fun d ->
        let lo, hi = chunk_bounds ~jobs ~n d in
        hi - lo)
  in
  let st =
    {
      jobs;
      tasks = n;
      chunk;
      wall_s = wall;
      cancelled = Atomic.get was_cancelled;
    }
  in
  Atomic.set last_stats (Some st);
  Obs.Metrics.incr m_runs;
  Obs.Metrics.add m_tasks n;
  match Atomic.get failure with Some (_, e) -> raise e | None -> st
