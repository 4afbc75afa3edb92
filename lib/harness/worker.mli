(** Worker-process side of the multi-process campaign: connect to the
    coordinator (Unix-domain socket on the same host, or TCP from
    another machine), pull leased task batches, run them with stdout
    captured per task, report results, heartbeat.

    A worker is intentionally dumb: it holds no queue state, never
    touches the WAL, and can be SIGKILLed at any instant — everything
    it was doing is reconstructed by the coordinator from the lease
    table.  The one durable thing it produces is the captured output
    file of each task, written under a {e lease-and-epoch-stamped}
    name ([.<task>.l<lease>e<epoch>.partial] inside [tasks_dir]); only
    the coordinator renames an accepted file to its canonical
    [<task>.out], so a zombie worker's late file can never clobber the
    output of the reassigned run.  TCP workers additionally inline the
    captured bytes in the result frame, since the coordinator cannot
    read their filesystem.

    {b Heartbeats} — a dedicated domain sends a beat every
    [heartbeat_s] whatever the main loop is doing, so a worker grinding
    through a long replicate still proves liveness; socket writes are
    mutex-serialized against result frames.  The domain waits on a
    self-pipe, so an orderly exit wakes and joins it at once.

    {b Reconnect/resume} — on either transport, on EPIPE, ECONNRESET,
    EOF, a CRC mismatch or a mid-frame read timeout the worker
    finishes its in-flight batch, then reconnects (with deterministic
    exponential backoff after a failed handshake), re-hellos with its
    worker id and pid, and re-sends the results the coordinator has
    not provably processed (a grant of a new lease is the proof).  A
    regrant of the same lease, which the coordinator sends on resume,
    skips the tasks whose results are held.  The coordinator's
    lease/epoch check decides whether a re-sent result is still
    trusted, so a duplicate can never corrupt an output.  A [Reject]
    at admission (bad version, bad token, a pid that is not the
    slot's current process) is terminal — exit code 3, no retry.

    {b Determinism} — tasks run in-process through [run_task] exactly
    as the single-process campaign would run them ([Experiment.print]
    and friends), replicates on the ordinary {!Rumor_par.Pool} Domain
    pool; the split-seed contract makes the captured bytes identical
    whichever worker, attempt, connection or job count executed the
    task. *)

val partial_name : task:string -> lease:int -> epoch:int -> string
(** Basename of the stamped capture file — shared with the
    coordinator, which renames or deletes it. *)

type transport =
  | Unix_sock of string  (** coordinator's Unix-domain socket path *)
  | Tcp of { host : string; port : int; token : string option }
      (** remote coordinator; [token] must match [--token] on the
          campaign or admission is rejected *)

val backoff_s : seed:int64 -> attempt:int -> float
(** Delay before connect [attempt] (1-based):
    [min 3 (0.05 * 2^(attempt-1)) * (0.5 + u)] with [u] drawn from
    [Rng.derive seed attempt] — deterministic per worker, exponential,
    jittered so a fleet of workers does not reconnect in lockstep. *)

val connect :
  ?attempts:int -> seed:int64 -> transport -> Unix.file_descr option
(** Dial the coordinator, creating a {e fresh} socket per attempt (a
    failed [connect] leaves an fd in unspecified state; retrying on it
    is EINVAL on some platforms) and sleeping {!backoff_s} between
    attempts (default 10).  Only plausibly-transient errors
    (ENOENT/ECONNREFUSED on startup races, reset/unreachable/timeout
    on network blips) are retried.  TCP sockets get
    [TCP_NODELAY]/[SO_KEEPALIVE]; all sockets are close-on-exec. *)

val run :
  ?heartbeat_s:float ->
  ?read_timeout_s:float ->
  ?max_reconnects:int ->
  transport:transport ->
  id:int ->
  tasks_dir:string ->
  run_task:(string -> unit) ->
  unit ->
  int
(** Serve until the coordinator says [Stop]; returns the process exit
    code: 0 on an orderly stop, 3 when the coordinator is unreachable,
    admission is rejected, or more than [max_reconnects] (default 100)
    sessions have failed.  [id] is the worker id to announce (a
    forked worker's local slot); pass [-1] over TCP to let the
    coordinator assign one (the [Welcome] reply is binding either
    way).  [read_timeout_s] (default 30) bounds how long a worker lets
    a {e partially received} frame sit before treating the connection
    as wedged and reconnecting — an idle connection with an empty
    buffer waits indefinitely.  [run_task] exceptions are
    caught, classified with {!Campaign.default_classify} and
    reported in the result frame — they never kill the worker. *)
