(** The spread-time query daemon: a single-threaded select loop plus
    one compute domain, answering {!Query} requests over TCP.

    {b Wire.}  One JSON document per request.  Two framings share the
    port, auto-detected per connection on its first byte: plain JSONL
    (['{'] or whitespace — one compact document per line, curl/netcat
    friendly) or the harness's 4-byte length-prefixed {!Proto} frames
    (any other first byte; a ['{'] prefix would imply a frame beyond
    [max_frame], so the detection is unambiguous).  Requests carry an
    optional ["op"]: ["query"] (default), ["ping"], ["stats"].  A
    query may set ["stream": true] to receive [{"k":"partial",...}]
    quantile updates as replicate chunks land.

    {b Caching.}  Completed sweeps live in the WAL-journaled {!Store}
    keyed by {!Query.key}; responses carry ["cache"] =
    ["hit"]/["miss"]/["coalesced"] and bit-identical quantiles in all
    three cases (decimal shortest-round-trip plus [%h] hex).

    {b Backpressure.}  Duplicate in-flight queries coalesce onto one
    job.  New work is admitted to a bounded queue; at capacity the
    request is shed immediately with [{"k":"overloaded",...}] — the
    queue never grows without bound and the client learns at once.

    {b Stalls.}  A connection holding bytes of an incomplete request
    (or silent since accept) longer than [read_timeout_s] is dropped
    and counted — a half-open client cannot pin a loop slot.

    Counters are authoritative plain fields (so [stats] and the
    manifest work even with {!Rumor_obs.Metrics} disabled) and are
    mirrored to [harness.serve.*] metrics; request latencies feed the
    [harness.serve.latency_s] histogram.  On shutdown ({!stop}, from
    any domain or a signal handler) the loop drains — in-flight
    waiters get an explicit shutdown error — and writes a
    [rumor-serve/1] manifest (config, counters, provenance) to
    [<dir>/serve.manifest.json]. *)

type config = {
  dir : string;  (** cache directory: journal, checkpoints, manifest *)
  host : string;  (** bind address: numeric or a resolvable hostname *)
  port : int;  (** 0 = ephemeral; see {!port} *)
  queue_cap : int;  (** admission-queue bound *)
  cache_cap : int;  (** LRU capacity *)
  jobs : int option;  (** sweep worker domains, [None] = pool default *)
  chunk : int;
      (** replicates per compute chunk of a fixed-count query; a
          [ci_width] query checks its stopping rule every 16
          replicates instead *)
  read_timeout_s : float;  (** stalled-connection drop; 0 disables *)
  throttle_s : float;  (** test hook: sleep before each chunk *)
  max_n : int;
  max_reps : int;  (** admission limits, rejected with an error *)
  fsync : bool;
}

val default_config : dir:string -> config
(** 127.0.0.1:ephemeral, queue 64, cache 512, chunk 8, 30 s read
    timeout, limits 65536 nodes / 10000 replicates. *)

type counters = {
  requests : int;
  hits : int;
  misses : int;
  coalesced : int;
  shed : int;
  stalled_drops : int;
  errors : int;
}

type t

val create : config -> t
(** Open the store, bind and listen.  Enables {!Rumor_obs.Metrics}.
    @raise Invalid_argument on a non-positive [queue_cap] or [chunk].
    @raise Unix.Unix_error when the address cannot be bound. *)

val port : t -> int
(** The bound port (resolves an ephemeral request). *)

val serve : t -> unit
(** Run until {!stop}: spawns the compute domain, serves, then drains,
    writes the manifest and closes the store.  Call once. *)

val stop : t -> unit
(** Request shutdown; async-signal-safe (atomic flag + self-pipe). *)

val counters : t -> counters
