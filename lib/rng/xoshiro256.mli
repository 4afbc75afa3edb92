(** xoshiro256** 1.0 (Blackman & Vigna, 2018).

    The workhorse generator behind {!Rng}: 256-bit state, period
    [2^256 - 1], excellent statistical quality, and a [jump] function
    giving [2^128] non-overlapping subsequences for independent
    streams.  Outputs match the reference C implementation. *)

type t

val of_seed : int64 -> t
(** Seed the 256-bit state from a 64-bit seed via SplitMix64, as
    recommended by the authors. *)

val next : t -> int64
(** Next raw 64-bit output. *)

val copy : t -> t
