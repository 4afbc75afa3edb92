(** The coupled processes of Lemma 4.2 / Claim 4.3.

    To bound how fast a rumor can cross the bipartite-cluster string
    [S_0 - S_1 - ... - S_k] of the [H_{k,Delta}] construction within
    one time unit, the paper replaces the push–pull algorithm by two
    simpler processes on the string:

    - the {b 2-push}: every string node carries a rate-2 clock and an
      informed node pushes to a uniformly random string neighbour —
      equivalent in law to push–pull on the string (each edge direction
      fires at total rate [2/(2 Delta)]);
    - the {b forward 2-push}: pushes go only to the next cluster —
      Claim 4.3 couples the two so that the forward process reaches
      [S_k] whenever the 2-push does, giving the clean layered bound
      [E I(1, k) <= (2^k / k!) Delta].

    This module simulates both on an explicit cluster structure, so the
    coupling inequality and the factorial bound can be checked
    directly (experiment L and the test suite). *)

open Rumor_rng

type outcome = {
  reached_last : bool;  (** did any node of [S_k] get informed by time 1 *)
  informed_last : int;  (** number of informed nodes in [S_k] at time 1 *)
  informed_total : int;  (** informed string nodes at time 1 *)
}

val two_push : Rng.t -> clusters:int array array -> horizon:float -> outcome
(** Simulate the 2-push on the complete-bipartite string defined by
    [clusters] (as produced by {!Rumor_dynamic.Paper_h.build}); all of
    [clusters.(0)] starts informed.
    @raise Invalid_argument on fewer than 2 clusters, or ragged
    cluster sizes. *)

val forward_two_push :
  Rng.t -> clusters:int array array -> horizon:float -> outcome
(** The forward variant: informed nodes of [S_i] push only into
    [S_{i+1}] (nodes of the last cluster never push). *)

val factorial_bound : k:int -> delta:int -> float
(** The Lemma 4.2 expectation bound [(2^k / k!) * Delta] on the number
    of informed [S_k] nodes at time 1. *)

(**/**)
