(** Durable campaign journal: an append-only JSONL write-ahead log
    with per-record CRC32 framing and crash recovery.

    The supervised campaign runner records every decided unit of work
    (a replicate outcome, a task transition) here {e before} moving
    on, so a crash — power loss included — loses at most the record
    in flight, and a resumed campaign replays exactly what was
    decided.

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
    (atomically, same tmp-fsync-rename discipline) down to the records
    that verified, so a recovered log is clean for the next crash. *)

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
(** Flush, sync and close.  Idempotent. *)

val quarantine_path : string -> string
(** [<path>.quarantine] — where recovery moves untrusted records. *)

val read : string -> recovery
(** Scan a log read-only: same validation as {!open_} but with no
    side effects — nothing quarantined, nothing compacted, no
    counters.  A missing file reads as an empty recovery.
    @raise Bad_magic as {!open_}. *)

val write_atomic : string -> string -> unit
(** [write_atomic path content] publishes [content] under [path] via
    tmp-file, flush, [fsync], [Sys.rename], then an [fsync] of the
    parent directory (so the rename itself survives power loss, not
    just the file contents) — the discipline used for the WAL header,
    compaction, and the campaign manifest.  A crash at any point
    leaves either the old file or the new one, never a torn mix. *)
