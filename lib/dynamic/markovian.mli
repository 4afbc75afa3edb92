(** Edge-Markovian evolving graphs (Clementi et al. [7], discussed in
    the paper's related work): each step every absent edge appears
    independently with probability [p] and every present edge dies
    with probability [q].

    Included as the stochastic counterpart of the paper's adversarial
    families: the P2P-churn example and several robustness tests run
    the asynchronous algorithm on this model. *)

open Rumor_graph

val network :
  n:int -> p:float -> q:float -> ?init:Graph.t -> unit -> Dynet.t
(** [network ~n ~p ~q ()] starts from [init] (default: the empty
    graph) and evolves per step.  Steps are sampled sparsely: geometric
    skipping visits only the flipped pairs, so a step costs
    O(#flips + p * m) expected instead of O(n^2), and each step carries
    the exact {!Dynet.delta} of its flips.
    @raise Invalid_argument if [p] or [q] is outside [[0, 1]], or
    [init] has the wrong node count. *)

val stationary_edge_probability : p:float -> q:float -> float
(** The chain's stationary presence probability [p / (p + q)]
    (defined when [p + q > 0]). *)
