(** Deterministic in-process TCP chaos proxy.

    [start ~forward_host ~forward_port fault] listens on a local port
    and forwards every accepted connection to the target, injecting
    network faults on the way: added latency and jitter, a bandwidth
    cap, dropped / duplicated / corrupted chunks, mid-frame
    truncation, and abortive connection resets (SO_LINGER 0, so peers
    see ECONNRESET exactly as they would from a real mid-transfer
    failure).  Tests and the [netchaos-smoke] CI job put the
    coordinator↔worker TCP link behind it and assert the campaign
    still produces byte-identical outputs.

    {b Determinism} — every per-chunk fault decision is a pure
    function of [(seed, connection index, direction, chunk index)]
    via {!Rumor_rng.Rng.derive}, so a given seed yields the same
    fault {e schedule} on every run.  Chunk boundaries themselves
    depend on socket timing, so the exact bytes a decision lands on
    may shift between runs — the schedule is deterministic, the
    byte-level trace is not.  What the proxied protocol must
    guarantee (and the tests assert) is that {e any} schedule leaves
    the campaign's outputs byte-identical.

    The proxy runs in its own domain; [stop] wakes it via a self-pipe
    and joins it.  Faults apply per 16 KiB read chunk.  A dropped
    chunk silently vanishes (TCP offers the proxy no retransmission —
    this models a broken middlebox, and is the stress the frame CRC +
    reconnect machinery must absorb).  Resets and truncations share
    the [max_resets] budget so a smoke test can ask for "exactly one
    forced failure". *)

type fault = {
  latency_s : float;  (** fixed one-way delay added to every chunk *)
  jitter_s : float;  (** uniform extra delay in [0, jitter_s) *)
  bandwidth_bps : int option;  (** per-direction throughput cap *)
  drop_p : float;  (** P(chunk silently discarded) *)
  dup_p : float;  (** P(chunk delivered twice) *)
  corrupt_p : float;  (** P(one byte of the chunk bit-flipped) *)
  truncate_p : float;
      (** P(half the chunk delivered, then the link reset) *)
  reset_p : float;  (** P(link reset before the chunk) *)
  reset_after_bytes : int option;
      (** reset a connection once it has carried this many bytes *)
  max_resets : int option;
      (** global budget for resets + truncations; [None] = unlimited *)
}

type stats = {
  conns : int;
  chunks : int;
  bytes : int;
  dropped_chunks : int;
  dup_chunks : int;
  corrupted_chunks : int;
  truncated_chunks : int;
  resets : int;
}

type t

val start :
  ?seed:int ->
  ?listen_host:string ->
  ?port:int ->
  forward_host:string ->
  forward_port:int ->
  fault ->
  t
(** Bind [listen_host:port] (defaults [127.0.0.1], kernel-assigned)
    and start proxying to [forward_host:forward_port] in a fresh
    domain.  Each accepted connection dials the target on demand; a
    target that refuses closes the client end immediately.
    @raise Unix.Unix_error when the listen socket cannot be bound.
    @raise Failure when [listen_host] does not resolve. *)

val port : t -> int
(** The bound listening port (useful with [port = 0]). *)

val stats : t -> stats
(** Snapshot of the fault counters (thread-safe). *)

val stop : t -> unit
(** Reset every live link, close the listener, join the proxy domain.
    Idempotent. *)
