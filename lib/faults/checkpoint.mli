(** Checkpoint/resume of partially completed Monte-Carlo sweeps.

    Each replicate of a sweep is keyed by the 64-bit fingerprint of its
    child RNG (the first output of a {e copy} of the child, so the key
    never perturbs the stream).  Because child streams are derived from
    the replicate {e index} ({!Rumor_rng.Rng.derive}), the keys — and
    hence the cached outcomes — are stable across interrupted and
    resumed runs, whatever job count or replicate total either run
    uses: a resumed sweep reproduces bit-identical samples to an
    uninterrupted one.

    Times are serialized as hexadecimal floats ([%h]) so the round trip
    through disk is exact.  The format is line-oriented text:

    {v
    rumor-checkpoint v2 crc32=<hex8>
    <seed-hex> finished <time-hex>
    <seed-hex> censored <time-hex>
    <seed-hex> failed <escaped message>
    v}

    {b Durability} — {!save} writes through a temporary file that is
    flushed and [fsync]ed {e before} [Sys.rename] publishes it, so a
    crash at any point leaves either the old checkpoint or the new one,
    never a torn file under the final name.  The header carries the
    CRC-32 of the payload (everything after the header line).

    {b Load validation} — {!load} rejects (with a stderr warning and
    the [checkpoint.bad_magic] counter) any file whose first line is
    not a known magic; legacy ["rumor-checkpoint v1"] files (no CRC)
    are still read.  A v2 payload failing its CRC is surfaced via
    [checkpoint.crc_mismatches] and degrades to per-line parsing.
    Malformed lines are never silently dropped: they are counted in
    [checkpoint.corrupt_lines] and one stderr warning reports the
    first offending line number (a torn write still loses at most its
    own replicate). *)

type outcome =
  | Finished of float  (** every node informed at this time *)
  | Censored of float
      (** horizon or event budget hit; the time reached (the true
          spread time exceeds it) *)
  | Failed of string  (** the replicate raised; printed exception *)

val fingerprint : Rumor_rng.Rng.t -> int64
(** Stable 64-bit key of an RNG state, without advancing it. *)

val save : string -> seeds:int64 array -> outcomes:outcome option array -> unit
(** Write every decided outcome ([Some _]) keyed by its seed.  Pending
    replicates ([None]) are omitted and will be re-run on resume.
    @raise Invalid_argument if the arrays' lengths differ. *)

val load : string -> (int64, outcome) Hashtbl.t
(** Read a checkpoint file back (v2 with CRC verification, or legacy
    v1).  Returns an empty table if the file does not exist or its
    magic line is wrong; lines it cannot parse are counted and warned
    about, never silently skipped (see the format notes above). *)
