(** The one durable log format: an append-only JSONL write-ahead log
    with per-record CRC32 framing and crash recovery.

    Three writers share it: the campaign journal (every task
    transition and decided unit of work, recorded {e before} moving
    on), the serve result store ([results.wal]) and sweep checkpoints
    ({!Checkpoint}, one record of newly decided replicate outcomes per
    save).  A crash — power loss included — loses at most the record
    in flight, and a resumed run replays exactly what was decided.

    {b Format} ([rumor-wal/1]) — a magic first line, then one JSON
    object per line:

    {v
    rumor-wal/1
    {"crc":"<hex8>","rec":<payload>}
    ...
    v}

    where [crc] is the CRC-32 (ISO-HDLC) of the compact rendering of
    [rec].  Verification re-renders the parsed payload, which is exact
    because the codec's renderings are canonical (parse∘render = id
    and render∘parse∘render = render).

    {b Durability} — the header is published by an atomic
    write-fsync-rename, so the magic line is never torn under the
    final name; each {!append} writes one complete line and (by
    default) [fsync]s before returning.

    {b Recovery} — {!open_} scans an existing log and {e quarantines}
    — never silently drops — anything it cannot trust: a record
    failing its CRC or not parsing, and a torn final line (no
    terminating newline; kept only if its CRC still verifies).
    Offenders are appended to [<path>.quarantine], tallied in the
    [harness.wal_corrupt_records] counter, and the log is compacted
    (by {!rewrite}) down to the records that verified, so a recovered
    log is clean for the next crash.

    {b Rewrites} — every whole-log rewrite goes through {!rewrite}:
    the fresh header, recovery compaction, the serve store's
    compaction and the replacement of a checkpoint file that is not a
    WAL.  (The metric names keep their historical [harness.] prefix.) *)

module Json = Rumor_obs.Json

type t
(** An open log handle.  Appends are mutex-guarded: safe from multiple
    domains. *)

exception Bad_magic of { path : string; found : string }
(** The file exists but its first line is not ["rumor-wal/1"] — it is not a
    WAL (or not one this version reads); refusing is safer than
    quarantining the whole file. *)

type recovery = {
  records : Json.t list;
      (** every record that verified, in append order *)
  corrupt_records : int;
      (** records quarantined to [<path>.quarantine] (torn tail
          included) *)
  truncated_tail : bool;
      (** the file ended mid-record and the fragment did not verify *)
  existed : bool;  (** the file was already on disk *)
}

val open_ : ?fsync:bool -> string -> t
(** Open for appending, creating (with a durable header) or
    recovering (see above) as needed.  [fsync] (default [true])
    makes every {!append} flush to stable storage; turn it off only
    for tests.
    @raise Bad_magic as documented above. *)

val recovery : t -> recovery
(** What {!open_} found on disk — the resume state. *)

val append : t -> Json.t -> unit
(** Durably append one record (one CRC-framed line).
    @raise Invalid_argument on a closed log. *)

val close : t -> unit
(** Flush, sync (unless [fsync] already synced every append) and
    close.  Idempotent. *)

val quarantine_path : string -> string
(** [<path>.quarantine] — where recovery moves untrusted records. *)

val read : string -> recovery
(** Scan a log read-only: same validation as {!open_} but with no
    side effects — nothing quarantined, nothing compacted, no
    counters.  A missing file reads as an empty recovery.
    @raise Bad_magic as {!open_}. *)

val rewrite : string -> Json.t list -> unit
(** [rewrite path records] atomically publishes, by {!write_atomic},
    a log holding exactly [records] in order: the same bytes as a
    fresh log given those appends.  Close any handle open on [path]
    first; it would keep appending to the replaced file. *)

val write_atomic : string -> string -> unit
(** [write_atomic path content] publishes [content] under [path] via
    tmp-file, flush, [fsync], [Sys.rename], then an [fsync] of the
    parent directory (so the rename itself survives power loss, not
    just the file contents) — the discipline used by {!rewrite} and
    for the campaign and serve manifests and the coordinator's port
    file.  A crash at any point
    leaves either the old file or the new one, never a torn mix. *)
