(** Crash-safe supervised campaign runner: executes a list of named
    tasks (registry experiments, typically) under a durable journal,
    per-task retry/backoff, a failure budget, and graceful
    SIGINT/SIGTERM shutdown with bit-identical resume.

    The runner journals every task transition to
    [<dir>/campaign.wal] (see {!Wal} for the [rumor-wal/1] format and
    its recovery guarantees) {e before} acting on it, and publishes a
    [<dir>/campaign.manifest.json] summary on every exit path —
    completion, quarantine, budget abort and shutdown alike.

    {b Shutdown} — {!install_signal_handlers} routes SIGINT/SIGTERM
    to {!Rumor_par.Pool.cancel} on {!Rumor_par.Pool.global}: every
    Monte-Carlo pool in the process (including ones buried inside
    experiment code) drains cooperatively — in-flight replicates
    finish, nothing is interrupted mid-replicate — and the campaign
    records the task as interrupted, writes the manifest and returns.
    A later run with [resume = true] skips the journaled-done tasks
    and re-runs the interrupted one from its seed, producing
    bit-identical output (replicate streams are index-keyed; see
    {!Rumor_sim.Run}).

    {b Deadlines} — [deadline_s] is installed as the process-wide
    {!Rumor_sim.Run.set_default_deadline} for the duration of the
    campaign, so replicates inside experiments are wall-clock bounded
    (censored, tallied in [harness.deadline_censored]) even though
    the experiment code never heard of deadlines. *)

type classification = Transient | Poison

val default_classify : exn -> classification
(** [Sys_error], [Unix.Unix_error] and [Out_of_memory] are transient
    (the environment may behave differently next time); everything
    else is poison (a deterministic failure would repeat on every
    attempt).  Multi-worker campaigns classify a failed task with it
    too. *)

type task = {
  id : string;  (** journal key — stable across runs *)
  run : unit -> unit;  (** the work; must be re-runnable from scratch *)
}

type task_outcome =
  | Done of float  (** completed this run; wall seconds *)
  | Cached  (** journaled as done by a previous run; skipped *)
  | Quarantined of string  (** failed after retries; printed exception *)
  | Interrupted  (** shutdown arrived while it ran; resume re-runs it *)
  | Not_run  (** never started (shutdown or budget abort upstream) *)

type config = {
  dir : string;  (** journal + manifest directory (created) *)
  resume : bool;
      (** reuse an existing journal; [false] starts fresh (the old
          journal and quarantine are deleted) *)
  deadline_s : float option;  (** per-replicate wall-clock bound *)
  retries : int;  (** extra attempts per task, transients only *)
  backoff_s : float;  (** base exponential backoff between attempts *)
  fail_budget : float;
      (** abort when quarantined tasks exceed this fraction of the
          task list; [1.0] disables the gate *)
  fsync : bool;  (** fsync every journal append (default; tests may
                     turn it off) *)
  classify : exn -> classification;
}

val default_config : dir:string -> config
(** [resume = false], no deadline, [retries = 1], [backoff_s = 0.5],
    [fail_budget = 1.0], [fsync = true],
    {!default_classify}. *)

type summary = {
  outcomes : (string * task_outcome) list;  (** in task-list order *)
  resumed : bool;  (** an existing journal was reused *)
  interrupted : bool;
  aborted : bool;  (** the failure budget tripped *)
  retries : int;
  quarantined : int;
  wal_corrupt_records : int;  (** quarantined during journal recovery *)
  wall_s : float;
}

val wal_file : string -> string
(** [wal_file dir] = [<dir>/campaign.wal], the journal of a campaign
    in [dir], whether {!run} or [Coordinator.run] drives it. *)

val manifest_path : config -> string

val install_signal_handlers : unit -> unit
(** Route SIGINT and SIGTERM to cancelling
    {!Rumor_par.Pool.global} (one atomic store — handler-safe).
    Idempotent: the {e first} signal starts the cooperative drain; a
    {e second} signal (the token is already cancelled) hard-exits the
    process immediately with status 130 — it never re-runs the drain
    path, so a stuck drain cannot absorb repeated Ctrl-C.  Call once,
    before {!run}; platforms without these signals are ignored. *)

val run : ?cancel:Rumor_par.Pool.token -> config -> task list -> summary
(** Execute the tasks in order under the journal.  [cancel] (default
    {!Rumor_par.Pool.global}) is the shutdown token; a cancelled token
    marks the running task interrupted and the rest not-run.  The
    manifest is written on every exit path; the journal is closed
    and the previous default deadline restored even if a task dies
    irrecoverably.
    @raise Wal.Bad_magic if [resume] finds a non-WAL file in the way. *)

val exit_code : summary -> int
(** [0] for a clean or merely interrupted campaign (interruption is
    an operator action, not a failure), [1] when anything was
    quarantined or the budget aborted the run. *)
