(** Deterministic random source used everywhere in the library.

    Every randomized component (graph generators, simulators,
    Monte-Carlo runners) takes an explicit [Rng.t]; nothing touches the
    global [Stdlib.Random] state, so every experiment is reproducible
    from its integer seed. *)

type t

val create : int -> t
(** [create seed] builds a generator from an integer seed.  Identical
    seeds give identical streams. *)

val split : t -> t
(** An independent child generator, seeded through SplitMix64 from the
    parent's next output (the parent advances by one draw).  Use one
    child per Monte-Carlo repetition so that adding repetitions never
    perturbs earlier ones. *)

val derive : int64 -> int -> t
(** [derive base i] is the [i]-th child of the 64-bit seed [base]:
    exactly the [i]-th sequential SplitMix64 split of [base], computed
    in O(1) without touching children [0..i-1].  The Monte-Carlo
    runners draw [base] once per sweep (one {!bits64} draw of the
    parent) and key every replicate's stream by its index, which makes
    samples bit-identical for any number of worker domains and lets a
    resumed sweep re-run only missing replicate indices.
    @raise Invalid_argument if [i < 0]. *)

val copy : t -> t
(** Snapshot of the current state. *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int t bound] is uniform on [{0, ..., bound-1}] without modulo
    bias.  @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float
(** Uniform on [[0, 1)], with 53 bits of precision. *)

val float_pos : t -> float
(** Uniform on [(0, 1]]; never returns 0, safe for [log]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to
    [[0, 1]]). *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array.
    @raise Invalid_argument on an empty array. *)
