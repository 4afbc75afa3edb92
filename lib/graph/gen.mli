(** Graph families: the deterministic and random generators the
    experiments draw their static networks and building blocks from.

    Random generators take an explicit {!Rumor_rng.Rng.t} and are fully
    reproducible.  All outputs are simple graphs; invalid parameter
    combinations raise [Invalid_argument]. *)

open Rumor_rng

val empty : int -> Graph.t
(** [n] isolated nodes. *)

val clique : int -> Graph.t
(** Complete graph [K_n]. *)

val star : int -> Graph.t
(** Star on [n >= 1] nodes with centre [0] (the [K_{1,n-1}] of the
    dynamic-star dichotomy). *)

val path : int -> Graph.t
(** Path [0 - 1 - ... - (n-1)]. *)

val cycle : int -> Graph.t
(** Cycle on [n >= 3] nodes. *)

val circulant : int -> int list -> Graph.t
(** [circulant n strides] connects [i] to [i ± s mod n] for each stride
    [s].  With strides [1..d/2] this is the canonical connected
    [d]-regular graph used for [G(B, Delta)] in Section 5.1.
    @raise Invalid_argument if any stride [s] violates
    [1 <= s <= n/2], or strides repeat, or [s = n/2] is listed when that
    chord class collapses to single edges together with another use. *)

val hypercube : int -> Graph.t
(** [hypercube d] on [2^d] nodes. *)

val barbell : int -> Graph.t
(** Two [K_n] cliques joined by a single bridge edge: the classic
    low-conductance static network (spread bottleneck). Total [2n]
    nodes. *)

val clique_with_pendant : int -> Graph.t
(** [K_n] plus one pendant node attached to node [0] — the [G^(0)] of
    the dynamic network [G1] (Figure 1a).  Total [n+1] nodes; the
    pendant is node [n]. *)

val two_cliques_bridged : int -> Graph.t
(** Two cliques of sizes [ceil(N/2)], [floor(N/2)] over [N = n+1] total
    nodes, joined by the bridge [{0, n}] — the [G^(t>=1)] of [G1]
    (Figure 1a): node [0] sits in the left clique and node [n] in the
    right. *)

val erdos_renyi : Rng.t -> int -> float -> Graph.t
(** [G(n, p)]: every pair independently with probability [p]. *)

val random_connected_regular : Rng.t -> int -> int -> Graph.t
(** [random_connected_regular rng n d]: a uniform-ish simple connected
    [d]-regular graph by the configuration model with restart on
    collisions, resampled until connected ([d >= 3] virtually always
    succeeds on the first draw); w.h.p. an expander for fixed [d >= 3].
    @raise Invalid_argument if [n * d] is odd or [d >= n] or [d < 1]. *)

val watts_strogatz : Rng.t -> int -> int -> float -> Graph.t
(** [watts_strogatz rng n k beta]: ring lattice with [k] neighbours per
    side, each lattice edge rewired with probability [beta] (rewired
    endpoints avoid loops and duplicates; a saturated node skips the
    rewire).  The standard small-world model for "social" gossip
    workloads.
    @raise Invalid_argument unless [1 <= k <= (n-1)/2] and
    [0 <= beta <= 1]. *)

val barabasi_albert : Rng.t -> int -> int -> Graph.t
(** [barabasi_albert rng n m]: preferential attachment starting from an
    [m+1]-clique, each arriving node attaching to [m] distinct existing
    nodes sampled proportionally to degree.  Produces the heavy-tailed
    degree distributions of the paper's "social networks" motivation
    (Doerr et al. [12]).
    @raise Invalid_argument unless [1 <= m < n]. *)
