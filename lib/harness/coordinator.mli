(** Multi-process campaign coordinator: process-level supervision on
    top of the PR-5 WAL/campaign substrate.

    [run ~spawn config tasks] forks [config.workers] worker processes
    (via [spawn], typically a re-exec of the [rumor] binary in its
    hidden [worker] mode) and feeds them task batches over a
    Unix-domain socket with the length-prefixed JSONL protocol of
    {!Proto}.  With [config.listen] set, it additionally accepts
    {e remote} workers over TCP ([rumor worker --connect]), so a
    campaign can span machines.  Each batch is a {!Lease}: lease id +
    fencing epoch, journaled to the campaign WAL before the grant is
    sent, so the log always knows who was allowed to produce what.

    {b Admission} — every worker, forked or remote, opens with the
    same versioned hello (protocol version, worker id, pid, CRC
    request, and over TCP the campaign token), and one admission
    function serves both listeners.  A missing or foreign version, a
    wrong token on a TCP link, or a hello naming a local slot with a
    pid that is not that slot's current process is rejected {e at the
    door} with a terminal [Reject] frame — a stray worker from another
    campaign, or an orphan of a killed coordinator after [--resume],
    never touches a lease.  Admitted workers get a [Welcome] naming
    their worker id (fresh TCP ids are allocated above the local slot
    range; a returning id resumes its slot) and, when negotiated,
    every subsequent frame in both directions carries a CRC-32
    trailer: a corrupted stream surfaces as a protocol error →
    disconnect → resume, never as a silently-wrong grant or result.
    TCP results inline their captured bytes in the frame; the
    coordinator materializes them through the same stamped-partial +
    atomic-rename path a forked worker's file takes.

    {b Failure model} — a slot differs between local and remote only
    in owning a pid.  EOF (or a broken stream) on any slot means
    {e disconnected}: the lease stays held and the worker is expected
    to reconnect and resume, upon which its active lease is
    regranted.  The exit of a local slot's pid means {e death}: a
    local worker can die at any instant (crash, segfault, OOM-kill,
    [kill -9]), and the coordinator then reclaims the lease (bumping
    the fencing epoch), journals the incident, returns the unfinished
    tasks to the queue for a surviving worker, and — unless the slot
    exhausted its restart budget — forks a replacement.  The
    heartbeat timeout is the backstop for both: a silent slot is
    declared dead.  A remote slot's death charges {e no} retry budget
    — network faults are exogenous, like chaos kills — and an
    uncharged-reassignment cap bounds the livelock a permanently
    flapping link could cause.  A {e zombie} (declared
    dead but still writing) can only speak with its stale lease/epoch
    pair; its results are fenced, counted, and its stamped output file
    deleted, so it can never corrupt the campaign.  The same fencing
    check runs over the journal at [--resume] time ({!Lease.Replay}),
    rejecting a zombie's writes that raced a crash into the WAL.

    {b Determinism} — workers run tasks with the ordinary in-process
    machinery (index-keyed split-seed replicate streams), each task's
    stdout captured to [<dir>/tasks/<id>.out] via an atomic
    epoch-stamped rename.  However many workers die, restart,
    disconnect or get chaos-killed, the accepted output files are
    byte-identical to a [workers = 1] run of the same campaign.

    {b Graceful degradation} — the campaign finishes with however
    many workers survive; it aborts only when live {e local} workers
    fall below [min_workers], or quarantined tasks exceed
    [fail_budget].  A flapping local worker (more than [max_restarts]
    uncommanded deaths) is demoted — no longer respawned — before it
    burns the campaign budget.  Chaos kills
    ({!config.chaos_kill_every_s}, used by tests and CI) are
    coordinator-inflicted, local-only, and charge {e no} budget: they
    prove the recovery machinery, not the workload.

    {b Shutdown} — the [cancel] token (default
    {!Rumor_par.Pool.global}, wired to SIGINT/SIGTERM by
    {!Campaign.install_signal_handlers}) stops new grants; in-flight
    batches drain, then every worker is sent [Stop] at once and given
    one shared 2 s deadline to hang up before the stragglers are
    SIGKILLed; every forked pid is reaped.  A [--resume] run continues
    bit-identically from the journal, stamping its leases above the
    journal's largest lease id and epoch. *)

type config = {
  dir : string;  (** journal, manifest and [tasks/] outputs live here *)
  workers : int;
      (** local processes to fork; may be 0 when [listen] is set *)
  min_workers : int;
      (** abort when live (non-demoted) {e local} workers fall below
          this; never triggered by remote departures *)
  batch : int;  (** tasks per lease (default 1) *)
  resume : bool;  (** replay the journal; [false] starts fresh *)
  heartbeat_timeout_s : float;
      (** a worker silent for this long is declared dead (zombied) *)
  chaos_kill_every_s : float option;
      (** SIGKILL a random live local worker this often (chaos mode).
          Progress is guaranteed: a task chaos-reassigned 5 times makes
          its next holder immune, so a task longer than the kill
          interval cannot livelock the campaign. *)
  retries : int;
      (** per-task budget for transient failures and uncommanded
          local worker deaths before the task is quarantined *)
  max_restarts : int;
      (** per-slot uncommanded-death budget before demotion *)
  fail_budget : float;
      (** abort when quarantined tasks exceed this fraction of the
          task list; [1.0] disables the gate *)
  fsync : bool;  (** fsync journal appends (tests may turn it off) *)
  seed : int;  (** seeds the chaos-victim RNG only *)
  listen : (string * int) option;
      (** also accept TCP workers on this host/port (port 0 =
          kernel-assigned; the bound port is written to
          [<dir>/coord.port]) *)
  token : string option;
      (** campaign token TCP workers must present; [None] admits any *)
}

val default_config : dir:string -> workers:int -> config
(** [min_workers = 1], [batch = 1], [resume = false],
    [heartbeat_timeout_s = 30.], no chaos, [retries = 1],
    [max_restarts = 3], [fail_budget = 1.0], [fsync = true],
    [seed = 2020], [listen = None], [token = None]. *)

type worker_stats = {
  slot : int;
  restarts : int;  (** uncommanded deaths charged to the slot *)
  chaos_kills : int;  (** coordinator-inflicted SIGKILLs (uncharged) *)
  tasks_done : int;
  fenced : int;  (** stale-epoch results rejected from this slot *)
  demoted : bool;
  remote : bool;
      (** not forked by this coordinator (a slot id at or above
          [config.workers]), so its incarnations own no pid *)
}

type summary = {
  outcomes : (string * Campaign.task_outcome) list;  (** task order *)
  resumed : bool;
  interrupted : bool;
  aborted : bool;
  cached : int;  (** trusted journal replays (task skipped) *)
  retries : int;
  quarantined : int;
  reassignments : int;
      (** tasks returned to the queue by a reclaimed lease *)
  fences : int;  (** live stale-epoch results rejected *)
  replay_fenced : int;  (** journal done-records rejected at replay *)
  worker_deaths : int;
      (** uncommanded deaths: local pid exits and heartbeat timeouts
          (remote slots included); a disconnect is not a death *)
  worker_restarts : int;
  chaos_kills : int;
  stalled_drops : int;
      (** stray connections dropped for holding a partial frame (or
          never completing a hello) past the heartbeat timeout *)
  remote_reconnects : int;
      (** admitted hellos that resumed a slot's current incarnation
          after a disconnect — local and remote slots alike *)
  rejected : int;
      (** hellos refused at admission (version, token, or a pid that
          is not the named local slot's process) *)
  wal_corrupt_records : int;
  wall_s : float;
  workers : worker_stats list;  (** local slots, then remote joiners *)
}

val wal_path : config -> string
val manifest_path : config -> string

val port_path : config -> string
(** [<dir>/coord.port] — the bound TCP port, written before the first
    accept when [listen] is set (authoritative for port 0), removed at
    shutdown. *)

val tasks_dir : config -> string
(** [<dir>/tasks] — canonical captured outputs ([<id>.out]) plus the
    workers' epoch-stamped [.partial] files awaiting acceptance. *)

val output_path : config -> string -> string
(** Canonical captured output of a task: [<dir>/tasks/<id>.out]. *)

val run :
  ?cancel:Rumor_par.Pool.token ->
  spawn:(slot:int -> socket:string -> int) ->
  config ->
  string list ->
  summary
(** Run the campaign over the named tasks.  [spawn] forks one worker
    process for a local slot and returns its pid; the worker must
    connect to [socket], say hello with that slot as its id and that
    pid as its pid, and speak {!Proto} (use {!Worker.run}, either
    behind an exec of the CLI's [worker] subcommand or directly after
    [Unix.fork]).  Remote workers join on their own over
    [config.listen].  The manifest is written on every exit path.
    @raise Invalid_argument on [workers < 0], on [workers = 0]
    without [listen], or [batch < 1]
    @raise Wal.Bad_magic if [resume] finds a non-WAL file in the way.
    @raise Failure if [listen] names an unresolvable host. *)

val exit_code : summary -> int
(** As {!Campaign.exit_code}: [0] clean or interrupted, [1] when
    anything was quarantined or the campaign aborted. *)
