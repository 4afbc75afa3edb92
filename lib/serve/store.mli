(** The memoized result store: an in-memory LRU map from query
    fingerprints to finished sweep summaries, journaled to a
    crash-safe {!Rumor_faults.Wal} so a restarted server serves its
    warm set again.

    {b Journal.}  One [results.wal] under the cache directory holds
    [{"k":"result",...}] and [{"k":"evict","fp":...}] records; the
    live set is (results − later evicts), replayed on {!open_} in
    append order (which is LRU order: re-adds and the compactor both
    preserve it).  Quantile vectors ride as [%h] hex-float literals —
    the cache is bit-transparent by construction, never through a
    decimal round trip.

    {b Compaction.}  When live entries fall below half the journal's
    records (and the journal is non-trivial), or recovery quarantined
    a corrupt record, the live set is published as a fresh WAL by
    {!Rumor_faults.Wal.rewrite} — eviction churn cannot grow the
    journal without bound, and a torn tail never survives a
    restart.

    Not thread-safe: the server confines the store to its event-loop
    domain. *)

type entry = {
  query : Query.t;
  quantiles : float array;  (** one per [query.points], bit-exact *)
  reps : int;
  finished : int;
  censored : int;
  failed : int;
  wall_s : float;  (** compute wall-clock of the original miss *)
}

type t

val open_ : ?fsync:bool -> ?cap:int -> dir:string -> unit -> t
(** Open (creating the directory and journal as needed) and replay.
    [cap] (default 512) bounds the live set; [fsync] (default [true])
    is forwarded to the WAL.
    @raise Invalid_argument if [cap < 1].
    @raise Wal.Bad_magic if [results.wal] is not a WAL. *)

val find : t -> string -> entry option
(** Lookup by {!Query.key}; a hit refreshes the entry's LRU stamp. *)

val add : t -> string -> entry -> unit
(** Insert, journalling the result (and any evictions it forces).
    A duplicate fingerprint is ignored — results are immutable. *)

val size : t -> int

val evictions : t -> int
(** Evictions performed over this handle's lifetime. *)

val close : t -> unit
