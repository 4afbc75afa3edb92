(** Experiment framework: every theorem-validation run in DESIGN.md's
    per-experiment index is an {!t} registered in {!Registry}
    (see [registry.ml]); [rumor experiment] renders them through
    {!print}. *)

open Rumor_util

type output = {
  tables : (string * Table.t) list;  (** (caption, table) pairs *)
  notes : string list;  (** shape conclusions, fit slopes, pass/fail lines *)
  plots : string list;  (** pre-rendered ASCII plots *)
}

type t = {
  id : string;  (** e.g. "E1" *)
  title : string;
  claim : string;  (** the paper statement being validated *)
  run : full:bool -> Rumor_rng.Rng.t -> output;
      (** [full = false] uses quick sizes suitable for CI *)
}

val print : ?full:bool -> ?seed:int -> ?jobs:int -> t -> unit
(** Run and pretty-print one experiment (default quick mode,
    seed 2020).

    Monte-Carlo replicates inside the experiment execute on the
    {!Rumor_par.Pool} Domain pool; [jobs] installs a process-wide
    job-count override for the run (default: [RUMOR_JOBS] or the
    processor count).  Printed tables are bit-identical for any job
    count — the runners key every replicate's RNG stream by its index.

    When an observability sink is configured
    ({!Rumor_obs.Sink.set_dir}, via the CLI's [--obs-out] or
    [RUMOR_OBS_OUT]), the printed output is additionally mirrored as
    structured artifacts: every table row and note becomes a JSONL
    record in [<id>.jsonl], and a [<id>.manifest.json] records seed,
    mode, wall time and the metric-registry snapshot.  Stdout is
    byte-identical with the sink on or off. *)

val output_empty : output

val add_table : output -> string -> Table.t -> output

val add_note : output -> string -> output

val add_plot : output -> string -> output
