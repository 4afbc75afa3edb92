(** Lease table with epoch fencing — the coordinator's source of
    truth for "who may complete which task".

    Every batch handed to a worker is a {e lease}: a fresh lease id
    plus the value of a process-wide, monotonically increasing
    {e fencing epoch}.  Both ride along in every grant, every worker
    result, and every WAL record.  When the coordinator declares a
    worker dead (crash, OOM-kill, heartbeat timeout) it {e reclaims}
    the lease: the lease becomes inactive, the epoch advances, and the
    unfinished tasks return to the queue.  A zombie — a worker that
    was declared dead but is still running — can only produce results
    stamped with its old (lease, epoch) pair, and {!complete} rejects
    them ([`Fenced]); the same check applied to journal records at
    replay time ({!Replay}) rejects a zombie's writes that raced a
    crash into the WAL. *)

type t

type lease = {
  id : int;
  epoch : int;  (** fencing token at grant time *)
  worker : int;  (** slot the lease was granted to *)
  tasks : string list;  (** batch, in execution order *)
}

val create : ?after:int * int -> unit -> t
(** A table whose first grant is stamped above [after] = (largest
    lease id, largest epoch) of a recovered journal (default [(0, 0)]:
    lease 1, epoch 1).  A resumed run must pass its journal's
    high-water mark: {!Replay} remembers every reclaimed id, so a
    reused (lease, epoch) pair would make a later resume distrust a
    task that finished correctly. *)

val epoch : t -> int
(** Current fencing epoch (advances on every grant and reclaim). *)

val grant : t -> worker:int -> string list -> lease
(** Issue a fresh lease on a batch.  Advances the epoch; the returned
    lease carries the new value. *)

val complete :
  t -> lease_id:int -> epoch:int -> task:string ->
  [ `Ok | `Fenced | `Unknown_task ]
(** Validate a worker result against the table.  [`Ok] marks the task
    complete inside its lease (a lease whose every task completed is
    retired); [`Fenced] = the lease was reclaimed or the epoch is
    stale — the result must be discarded; [`Unknown_task] = active
    lease but a task it does not contain (protocol error). *)

val reclaim : t -> lease_id:int -> string list
(** Deactivate a lease and return its {e unfinished} tasks (completed
    ones stay completed).  Advances the epoch, so any later result
    carrying the old pair is [`Fenced].  Reclaiming an unknown or
    already-reclaimed lease returns []. *)

val active : t -> lease_id:int -> lease option
(** The lease, if still active. *)

val outstanding : t -> int
(** Number of active leases. *)

(** {1 Replay fencing}

    The WAL interleaves lease grant/reclaim records with task-done
    records (each stamped lease + epoch).  Replaying in order with
    {!Replay.step} reconstructs the fencing decisions: a done record
    is trusted only if its lease was granted and not yet reclaimed at
    that point in the log.  The coordinator never {e writes} a fenced
    done record in normal operation — this defends the resume path
    against logs merged, truncated or raced by a crashing zombie. *)
module Replay : sig
  type state

  val create : unit -> state

  val note_grant : state -> lease_id:int -> epoch:int -> unit
  val note_reclaim : state -> lease_id:int -> unit

  val check_done :
    state -> lease_id:int -> epoch:int -> [ `Trusted | `Fenced ]
  (** [`Fenced] iff the lease was reclaimed before this record, was
      never granted, or the epoch does not match its grant. *)
end
