(** Machine-readable record of one run: what executed, with which
    seed/engine/network, how long it took, and the metric registry at
    the end.  Written as [<id>.manifest.json] next to the other
    artifacts of the configured {!Sink} directory, so every experiment
    and sweep leaves a diffable provenance trail.

    Schema (["rumor-manifest/1"]):
    {v
    { "schema": "rumor-manifest/1",
      "kind":   "experiment" | "sweep" | "simulate" | "trace" | "bench" | ...,
      "id":     "E1",
      "seed":   2020,                     (optional)
      "rng_fingerprint": "ab54a98ceb1f0ad2",  (optional, hex of Checkpoint.fingerprint)
      "engine": "cut",                    (optional)
      "network": "clique",                (optional)
      "n":      128,                      (optional)
      "mode":   "quick" | "full",         (optional)
      "reps":   30,                       (optional)
      "wall_s": 1.25,
      ...extra fields...,
      "metrics": { Metrics.snapshot },    (unless suppressed)
      "spans":   { Span.snapshot } }
    v} *)

type t = {
  kind : string;
  id : string;
  seed : int option;
  rng_fingerprint : int64 option;
  engine : string option;
  network : string option;
  n : int option;
  mode : string option;
  reps : int option;
  wall_s : float;
  extra : (string * Json.t) list;
}

val make :
  kind:string ->
  id:string ->
  ?seed:int ->
  ?rng_fingerprint:int64 ->
  ?engine:string ->
  ?network:string ->
  ?n:int ->
  ?mode:string ->
  ?reps:int ->
  ?extra:(string * Json.t) list ->
  wall_s:float ->
  unit ->
  t

val write : ?with_registry:bool -> t -> unit
(** Write [<id>.manifest.json] into the sink directory (no-op when no
    sink is configured).  [with_registry] (default true) appends the
    current {!Metrics.snapshot} and {!Span.snapshot}. *)
