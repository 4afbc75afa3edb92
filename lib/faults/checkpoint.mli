(** Checkpoint/resume of partially completed Monte-Carlo sweeps.

    Each replicate of a sweep is keyed by the 64-bit fingerprint of its
    child RNG (the first output of a {e copy} of the child, so the key
    never perturbs the stream).  Because child streams are derived from
    the replicate {e index} ({!Rumor_rng.Rng.derive}), the keys — and
    hence the cached outcomes — are stable across interrupted and
    resumed runs, whatever job count or replicate total either run
    uses: a resumed sweep reproduces bit-identical samples to an
    uninterrupted one.

    {b Format} — a checkpoint is a {!Wal} log ([rumor-wal/1]), the
    one durable format the campaign journal and the serve store use
    too.  Each record holds outcomes, seed first:

    {v
    {"out":[["<seed-hex>","finished","<time %h>"],
            ["<seed-hex>","censored","<time %h>"],
            ["<seed-hex>","failed","<message>"]]}
    v}

    Seeds are hexadecimal [int64], times hexadecimal floats ([%h]),
    so the round trip through disk is exact; failure messages are
    ordinary JSON strings.

    {b Saving} — {!save} appends {e one} record holding only the
    outcomes whose seeds the file does not hold yet, so the bytes a
    chunk writes do not depend on how many replicates came before.
    Nothing new means nothing written and no [fsync].  Appends are
    [fsync]ed (counted in [harness.wal_appends]); the first save
    creates the file by {!Wal.rewrite}'s tmp-fsync-rename.

    {b Damage} — a record failing its CRC, or a torn tail, is
    skipped by {!load} and quarantined by the next {!save} (counted in
    [harness.wal_corrupt_records]); only its replicates re-run.  A
    file whose first line is not [rumor-wal/1] — a legacy
    ["rumor-checkpoint v1"]/["v2"] file included — is counted in
    [checkpoint.bad_magic], warned about on stderr and ignored: its
    replicates re-run bit-identically, and the next {!save} with
    outcomes replaces it with a WAL. *)

type outcome =
  | Finished of float  (** every node informed at this time *)
  | Censored of float
      (** horizon or event budget hit; the time reached (the true
          spread time exceeds it) *)
  | Failed of string  (** the replicate raised; printed exception *)

val fingerprint : Rumor_rng.Rng.t -> int64
(** Stable 64-bit key of an RNG state, without advancing it. *)

val save : string -> seeds:int64 array -> outcomes:outcome option array -> unit
(** Persist every decided outcome ([Some _]) keyed by its seed, by
    appending those the file lacks.  Pending replicates ([None]) are
    omitted and will be re-run on resume.
    @raise Invalid_argument if the arrays' lengths differ. *)

val load : string -> (int64, outcome) Hashtbl.t
(** Read a checkpoint back.  Returns an empty table if the file does
    not exist or is not a WAL (see above). *)
