(** Aligned plain-text tables for experiment output.

    Every experiment in the harness renders its rows through this module
    so that [rumor experiment] produces uniform, diffable tables (also
    pasted into EXPERIMENTS.md). *)

type align = Left | Right

type t

val create : ?aligns:align list -> string list -> t
(** [create headers] starts a table.  [aligns] defaults to [Right] for
    every column.
    @raise Invalid_argument if [aligns] is given with a length different
    from [headers]. *)

val add_row : t -> string list -> unit
(** @raise Invalid_argument on arity mismatch with the header. *)

val headers : t -> string list

val rows : t -> string list list
(** Rows in insertion order — the observability sinks re-emit them as
    structured (JSONL) records next to the printed table. *)

val print : ?title:string -> t -> unit
(** [print t] writes the table to stdout, columns aligned under a
    header separator, preceded by [title] (if any) and followed by a
    blank line. *)

(** Cell formatting helpers used across experiments. *)

val cell_f : ?digits:int -> float -> string
(** Fixed-point float cell, default 2 digits. NaN renders as ["-"]. *)

val cell_g : float -> string
(** Compact significant-digit float cell. *)

val cell_i : int -> string
