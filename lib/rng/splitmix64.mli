(** SplitMix64 pseudo-random generator (Steele, Lea & Flood, 2014).

    A tiny, fast, well-tested 64-bit generator with a trivially
    splittable state.  We use it (a) to seed {!Xoshiro256} and (b) as
    the source of independent child seeds for parallel Monte-Carlo
    runs.  Outputs match the reference C implementation bit for bit
    (see the known-answer tests in [test/test_rng.ml]). *)

type t

val create : int64 -> t
(** [create seed] starts a stream at [seed]. *)

val next : t -> int64
(** Next raw 64-bit output; advances the state. *)

val golden_gamma : int64
(** The Weyl-sequence increment [0x9E3779B97F4A7C15] (2^64 / phi).
    Exposed so that indexed derivation ({!Rumor_rng.Rng.derive}) can
    compute the [i]-th split of a base seed in O(1): the [i]-th
    sequential output of [create base] is [mix (base + (i+1) *
    golden_gamma)]. *)

val mix : int64 -> int64
(** The reference SplitMix64 finalizer: a bijective avalanche mix of
    one 64-bit word.  [mix (base + (i+1) * golden_gamma)] is the
    [i]-th output of the stream started at [base]. *)
