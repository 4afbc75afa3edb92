(** Structured run artifacts: JSONL, CSV and JSON files under one
    configured output directory.

    Every writer is a silent no-op while no directory is set, so
    experiments and runners emit unconditionally and the user opts in
    with [--obs-out DIR] (or [RUMOR_OBS_OUT]).  File names are
    sanitized to filesystem-safe characters; appends are serialized
    under one process-wide lock so rows from parallel workers never
    interleave mid-line. *)

val set_dir : string option -> unit
(** Configure (and create) the output directory; [None] disables. *)

val active : unit -> bool

val append_jsonl : string -> Json.t -> unit
(** [append_jsonl file row] appends one compact JSON line to
    [DIR/file]. *)

val write_json : string -> Json.t -> unit
(** Pretty-printed whole-file write (truncates). *)

val write_csv : string -> header:string list -> string list list -> unit
(** RFC-4180-style quoting for cells containing commas, double quotes
    or newlines. *)
