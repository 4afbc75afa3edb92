(** Coordinator↔worker wire protocol: length-prefixed JSON frames
    over a Unix-domain or TCP stream socket.

    {b Framing} — every message is a 4-byte big-endian payload length
    followed by exactly that many bytes of compact JSON (the same
    canonical renderings the WAL CRCs, so a frame is one
    {!Rumor_obs.Json.t} document; a trailing newline is {e not} part
    of the frame).  Length-prefixing survives payloads containing
    newlines and lets the receiver find frame boundaries without
    parsing.

    {b Integrity trailer} — when both sides negotiate it (see the
    handshake below), each frame additionally carries a 4-byte
    big-endian CRC-32 of the payload after the payload bytes.  A
    mismatch raises {!Protocol_error}: on a WAN a flipped bit must
    surface as a reconnect, never as a silently-wrong grant or
    result.  Workers on either transport ask for it.

    {b Messages} (field [k] discriminates):

    worker → coordinator:
    - [{"k":"hello","w":W,"pid":P,"v":2,"crc":B(,"tok":T)}] — sent
      once after connecting, on the Unix socket and over TCP alike.
      [w] = -1 asks the coordinator to assign a worker id; [pid]
      proves a forked worker is the current incarnation of its local
      slot; [tok] is the campaign token (checked on TCP only).
    - [{"k":"beat","w":W}] — periodic liveness heartbeat of a worker
      running a batch.
    - [{"k":"idle","w":W,"g":N}] — the heartbeat of a worker waiting
      for work, which has processed [N] grants on this connection.
      It lets the coordinator notice a frame that vanished whole (a
      broken middlebox can drop one without tripping the CRC): with
      an active lease outstanding, [N] equal to the grants sent means
      a result was lost, and [N] short of them twice in a row means a
      grant was; either way the lease is regranted.
    - [{"k":"res","w":W,"lease":L,"ep":E,"task":ID,"ok":B,
        "wall":"<%h>","file":F
        (,"err":MSG,"cls":"transient"|"poison","data":BYTES)}]
      — one task of lease [L] (fencing epoch [E]) finished; [file] is
      the basename of the captured-output file.  TCP workers inline
      the captured bytes as [data] (no shared filesystem); Unix-socket
      workers omit it and the coordinator reads the file.

    coordinator → worker:
    - [{"k":"welcome","w":W,"v":V,"crc":B}] — admission reply: the
      worker id to use from now on (binding for [w]=-1 hellos and
      resumes alike) and whether CRC trailers are on for every
      {e subsequent} frame in both directions.  The hello and the
      welcome themselves are always sent without a trailer.
    - [{"k":"reject","err":R}] — admission refused (missing or
      unsupported protocol version, bad token, a pid that is not the
      named local slot's current process); the coordinator closes the
      connection right after.  Terminal: the worker must not retry.
    - [{"k":"grant","lease":L,"ep":E,"tasks":[ID,...]}] — a lease on a
      batch of task ids.  A regrant of a lease the worker already
      processed makes it re-send the results it holds for it.
    - [{"k":"stop"}] — drain and exit cleanly.

    A reader tolerates partial frames (stream reassembly) and reports
    EOF distinctly; oversized, corrupted, or malformed frames raise
    {!Protocol_error} — the peer is not speaking this protocol (or
    the network damaged the stream). *)

module Json = Rumor_obs.Json

exception Protocol_error of string

val version : int
(** The protocol version (2) — the only one spoken: a hello whose [v]
    is absent or differs is rejected at admission. *)

val frame : ?crc:bool -> Json.t -> bytes
(** The wire bytes of one frame (length prefix + compact payload +
    optional CRC-32 trailer), for callers that buffer writes
    themselves.  [crc] defaults to [false].
    @raise Protocol_error when the payload exceeds the 8 MiB frame cap. *)

val send : ?crc:bool -> Unix.file_descr -> Json.t -> unit
(** Write one frame, handling short writes.
    @raise Unix.Unix_error as [write] (EPIPE = peer is gone). *)

type reader
(** Per-connection reassembly buffer. *)

val reader : unit -> reader
(** A fresh reader, CRC trailers off (the pre-handshake default). *)

val set_crc : reader -> bool -> unit
(** Switch trailer mode.  Call exactly at a frame boundary — after
    the handshake frames have been consumed and before any bytes of a
    trailered frame are fed — or reassembly desynchronizes. *)

val crc_enabled : reader -> bool

val feed : reader -> bytes -> int -> unit
(** [feed r buf n] appends the first [n] bytes just read from the
    socket. *)

val next : reader -> Json.t option
(** Pop the next complete frame, [None] if more bytes are needed.
    @raise Protocol_error on an oversized length prefix, a CRC-trailer
    mismatch, or a payload that does not parse. *)

(** {1 Stall detection}

    A half-open or wedged client that sends a partial frame and then
    nothing would otherwise pin its reassembly buffer (and its slot in
    a select loop) forever.  The reader timestamps every byte of
    progress; a connection is {e stalled} when bytes of an incomplete
    frame have been sitting in the buffer longer than the caller's
    timeout.  An empty buffer is merely idle, never stalled — idle
    policy is the caller's. *)

val age : reader -> now:float -> float
(** Seconds since the reader last made progress (creation or a
    non-empty {!feed}), given [now] from {!Rumor_obs.Clock.now_s}. *)

val stalled : reader -> now:float -> timeout:float -> bool
(** [pending r && age r ~now > timeout]. *)

val recv :
  ?deadline:float -> ?stall_timeout:float -> Unix.file_descr -> reader ->
  Json.t option
(** Block until one frame completes; [None] on EOF.  [deadline] (an
    absolute {!Rumor_obs.Clock.now_s} time) bounds the whole wait;
    [stall_timeout] bounds how long bytes of a partial frame may sit
    without progress ({!stalled}) — an empty buffer waits
    indefinitely.  Each wait is a single [select], not a poll.
    @raise Protocol_error as {!next}, or ["receive timed out"] when a
    bound is hit. *)

(** {1 Message constructors / parsers}

    Parsers return [None] on shape mismatch — an unknown [k] is the
    caller's to handle (log and ignore, for forward compatibility). *)

type msg =
  | Hello of {
      worker : int;  (** -1 = assign me an id (fresh TCP join) *)
      pid : int;
      proto : int;  (** the [v] field, required on the wire *)
      token : string option;
      crc : bool;  (** worker requests CRC trailers after the welcome *)
    }
  | Welcome of { worker : int; proto : int; crc : bool }
  | Reject of { reason : string }
  | Beat of { worker : int }
  | Idle of { worker : int; grants : int }
      (** [grants]: grants fully processed on this connection *)
  | Result of {
      worker : int;
      lease : int;
      epoch : int;
      task : string;
      ok : bool;
      wall_s : float;
      file : string;
      err : string option;
      transient : bool;
      data : string option;
          (** inlined captured-output bytes (TCP workers only) *)
    }
  | Grant of { lease : int; epoch : int; tasks : string list }
  | Stop

val to_json : msg -> Json.t
(** Every [Hello] renders [v] and [crc]; [tok] only when present. *)

val of_json : Json.t -> msg option
(** [None] on any shape mismatch, including a hello without [v] or
    [crc] — to the coordinator that is a first frame that is not a
    hello, and is rejected. *)
