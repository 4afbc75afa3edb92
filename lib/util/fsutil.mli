(** Filesystem durability helper for the two publish paths: the
    durable log's atomic rewrite ([Wal.write_atomic] in [lib/faults],
    behind the campaign journal, the serve store and sweep
    checkpoints) and the campaign coordinator's output publish.

    The atomic tmp→[fsync]→rename discipline makes file {e contents}
    durable, but the rename itself lives in the parent directory's
    entry table: until the directory inode is flushed, a power loss can
    roll the rename back and resurrect the old file (or nothing).
    {!fsync_parent_dir} closes that window. *)

val fsync_parent_dir : string -> unit
(** [fsync_parent_dir path] opens the directory holding [path]
    read-only, [fsync]s it and closes it — call after renaming
    something {e to} [path].  Errors are swallowed: some filesystems
    (and all non-POSIX platforms) refuse to fsync a directory fd, and
    the publication is still as durable as it was before the call —
    this is a best-effort hardening, never a new failure mode. *)
