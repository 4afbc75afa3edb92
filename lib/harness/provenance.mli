(** Run attribution recorded into campaign and serve manifests: which
    command produced this artifact, on which host, at which revision.

    Every accessor is total — a stripped container with no hostname,
    no [.git] and no CI environment yields [None]s, never an error —
    and the expensive lookups are memoized per process.  The fields
    are additive manifest metadata: consumers that do not know them
    ignore them ([rumor-campaign/1] and [/2] readers are unaffected). *)

module Json = Rumor_obs.Json

val manifest_fields : unit -> (string * Json.t) list
(** The optional manifest fields: always [argv] ([Sys.argv], argv[0]
    included), plus [hostname] ([Unix.gethostname]) and [git_rev] when
    known.  The revision is best effort: [RUMOR_GIT_REV], else
    [GITHUB_SHA], else one [git rev-parse --short HEAD] against the
    working directory. *)
