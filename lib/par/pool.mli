(** Chunked, work-stealing-free Domain pool for Monte-Carlo replicates.

    The pool runs [n] indexed tasks on up to [jobs] OCaml 5 domains.
    Task [i] is assigned to a domain by a {e static} contiguous-chunk
    partition (domain [d] of [j] runs indices [d*n/j .. (d+1)*n/j - 1]),
    so the mapping from task index to domain is a pure function of
    [(n, jobs)] — no queues, no stealing, no scheduling nondeterminism.
    Callers that key each task's randomness by its index (see
    {!Rumor_rng.Rng.derive}) therefore produce bit-identical results
    for {e any} job count, including [jobs = 1], which degrades to a
    plain in-order loop on the calling domain with no spawns at all.

    The other [jobs - 1] chunks run on helper domains that persist
    between runs.  Helpers belong to the domain that calls [run]: each
    calling domain keeps its own idle helpers, spawns one only when it
    has too few free, and stops and joins them when it exits
    ([Domain.at_exit]).

    Job-count resolution, in priority order:
    + the explicit [?jobs] argument;
    + the process-wide override ({!set_default_jobs}, wired to the
      CLI's [--jobs] flag);
    + the [RUMOR_JOBS] environment variable;
    + the detected processor count ({!nproc}).

    A [run] inside a task body, or [run]s on several domains at once,
    never share or wait on one another's helpers, so they cannot
    deadlock; but nesting multiplies domains past the hardware.  The
    Monte-Carlo runners are the only intended call sites. *)

type stats = {
  jobs : int;  (** domains actually used (after clamping to [n]) *)
  tasks : int;  (** [n], the task count *)
  chunk : int array;
      (** tasks assigned per domain, length [jobs] (all of them
          executed unless the run was cancelled) *)
  wall_s : float array;
      (** per-domain busy wall time, length [jobs] — recorded into run
          manifests so parallel efficiency is observable per run *)
  cancelled : bool;
      (** [true] iff a cancellation token stopped at least one domain
          before it exhausted its chunk *)
}

(** {1 Cooperative cancellation} *)

type token
(** A one-way stop flag shared between a supervisor and the pools it
    oversees.

    {b Guarantee} — tokens are polled {e between} tasks only: when a
    token is cancelled, every domain finishes the task it is currently
    executing (nothing is interrupted mid-replicate, so no partial
    outcome is ever observed), starts no further task, and returns; [run]
    then returns normally with [stats.cancelled = true].  Tasks that
    never started are simply not executed — callers that record
    per-task outcomes see them as undecided and can re-run them later
    (the index-keyed RNG streams make the re-run bit-identical).
    Cancelling is safe from any domain and from a signal handler (one
    atomic store, no allocation). *)

val token : unit -> token

val cancel : token -> unit

val is_cancelled : token -> bool

val reset : token -> unit
(** Re-arm a cancelled token (for reuse across supervised campaigns in
    one process; not synchronized with in-flight pools — only reset
    between runs). *)

val global : token
(** Process-wide token polled by {e every} [run] in addition to the
    explicit [?cancel] argument.  The campaign harness's SIGINT/SIGTERM
    handlers cancel it, so a shutdown request drains every pool in the
    process — including pools buried inside experiment code that was
    never told about cancellation.  The handlers are idempotent on this
    token: a second signal finds it already cancelled and hard-exits
    the process (status 130) rather than re-entering the drain — see
    {!Rumor_harness.Campaign.install_signal_handlers}. *)

val nproc : unit -> int
(** Detected processor count ([Domain.recommended_domain_count]). *)

val set_default_jobs : int option -> unit
(** Install (or with [None] clear) the process-wide job-count override;
    takes precedence over [RUMOR_JOBS] and {!nproc}.  The CLI's
    [--jobs] flag lands here, so every runner an invocation touches
    inherits it.
    @raise Invalid_argument if the value is [< 1]. *)

val default_jobs : unit -> int
(** The job count used when no explicit [?jobs] is given: the
    {!set_default_jobs} override, else [RUMOR_JOBS] (values [< 1] are
    ignored), else {!nproc}. *)

val resolve : ?jobs:int -> int -> int
(** [resolve ?jobs n] is the domain count a pool over [n] tasks will
    use: [jobs] (default {!default_jobs}) clamped to [n], and at least
    [1].  Exposed so callers can size per-domain state (metric shards)
    before calling {!run}.
    @raise Invalid_argument if [jobs < 1]. *)

val run :
  ?jobs:int -> ?cancel:token -> int -> (domain:int -> int -> unit) -> stats
(** [run ?jobs n body] executes [body ~domain i] for every
    [i] in [0..n-1], partitioned into contiguous chunks across
    [resolve ?jobs n] domains.  [domain] is the executing domain's
    pool-local index in [0..jobs-1] (use it to select per-domain
    state; within one domain, tasks run in increasing index order).

    [cancel] (plus the always-polled {!global} token) stops the pool
    cooperatively between tasks — see {!type:token} for the drain
    guarantee.

    {b Exception policy} — exceptions are isolated per domain: a
    raising task stops only its own domain's chunk; every chunk is
    always awaited before [run] returns; and the recorded
    exception of the {e lowest-indexed} failing domain is re-raised
    once all domains are accounted for (deterministic choice, so a
    multi-domain failure reproduces the [jobs = 1] exception whenever
    domain 0's chunk contains the first raising task).

    @raise Invalid_argument if [n < 0] or [jobs < 1]. *)

val last : unit -> stats option
(** The {!stats} of the most recently completed [run] in this process,
    for manifest enrichment after the fact.  Updated even when [run]
    re-raises a task exception. *)

val helpers : unit -> int
(** Helper domains currently alive in the process, across every calling
    domain: idle ones included, stopped ones not. *)
