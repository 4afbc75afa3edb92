(** Immutable simple undirected graphs in CSR form.

    The node universe is [{0, ..., n-1}].  Adjacency is stored as a
    compressed sparse row: one offsets array plus one packed neighbour
    array, ascending within each node's segment — cache-friendly on the
    simulator hot paths and cheap to re-derive step over step via
    {!patch}.  Graphs are immutable once built (use {!Builder}, or
    {!patch} from a predecessor); the simulators share graph values
    freely across Monte-Carlo repetitions.  Parallel edges and
    self-loops are rejected at construction time: every graph in the
    paper's model is simple (Section 2). *)

type t

val n : t -> int
(** Number of nodes. *)

val m : t -> int
(** Number of edges. *)

val degree : t -> int -> int
(** [degree g u]; O(1). @raise Invalid_argument if [u] is out of
    range. *)

val iter_neighbors : (int -> unit) -> t -> int -> unit
(** Iterate the neighbours of a node in increasing order without
    allocating.  Unchecked: the node must be in range. *)

val unsafe_degree : t -> int -> int
(** [degree] without the bounds check.  The engines validate node ids
    once at creation and use this inside their event loops. *)

val unsafe_neighbor : t -> int -> int -> int
(** [unsafe_neighbor g u i] is the [i]-th neighbour of [u], in
    increasing order; O(1) and unchecked: [u] must be in range and
    [0 <= i < degree g u]. *)

val csr_offsets : t -> int array
(** The CSR offsets (length [n + 1]): node [u]'s neighbours sit at
    positions [off.(u) .. off.(u + 1) - 1] of {!csr_neighbors}, so its
    degree is [off.(u + 1) - off.(u)].  Owned by the graph: do not
    mutate.  For loops that must not allocate per neighbour (a closure
    passed to {!iter_neighbors} cannot carry an unboxed float
    accumulator). *)

val csr_neighbors : t -> int array
(** The packed neighbour array (length [2m]), ascending within each
    node's segment.  Owned by the graph: do not mutate. *)

val has_edge : t -> int -> int -> bool
(** Adjacency test, O(log(degree)). *)

val edges : t -> (int * int) array
(** Every edge once, as [(u, v)] with [u < v], sorted
    lexicographically.  Owned by the graph (computed once, lazily): do
    not mutate. *)

val iter_edges : (int -> int -> unit) -> t -> unit
(** Iterate over edges [(u, v)] with [u < v]. *)

val fold_edges : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a

val volume : t -> int
(** [volume g = 2 * m g]: the total degree, [vol(G)] in the paper. *)

val max_degree : t -> int
(** 0 on an edgeless graph. *)

val min_degree : t -> int
(** 0 on an edgeless graph (and on any graph with an isolated node). *)

val equal : t -> t -> bool
(** Same node count and same edge set. *)

val pp : Format.formatter -> t -> unit
(** Compact [n/m] + adjacency rendering for small graphs. *)

(** {1 Structural deltas}

    The dynamic-network layer evolves graphs step over step; these two
    operations close the loop: [patch g ~add ~remove] is the next step's
    graph and [diff] recovers the delta between two snapshots. *)

val patch : t -> add:(int * int) array -> remove:(int * int) array -> t
(** [patch g ~add ~remove] is [g] with the [add] edges inserted and the
    [remove] edges deleted, built by segment blits in
    O(n + |delta| * max-touched-degree) — no Builder round trip.  Edge
    pairs may be given in either orientation.
    @raise Invalid_argument if an added edge is already present (or
    self-looping, or out of range), a removed edge is absent, or an
    edge appears twice in the delta. *)

val diff : t -> t -> (int * int) array * (int * int) array
(** [diff a b] is [(added, removed)] with both arrays lex-sorted and
    [(u, v)]-oriented ([u < v]), such that
    [patch a ~add:added ~remove:removed] equals [b].  O(n + m_a + m_b).
    @raise Invalid_argument on a node-count mismatch. *)

(**/**)

val unsafe_make : n:int -> adj:int array array -> t
(** Internal constructor used by {!Builder}; assumes [adj] is sorted,
    symmetric, loop-free and duplicate-free. *)
