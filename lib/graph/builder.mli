(** Mutable construction of simple graphs.

    A builder accumulates edges with O(1) duplicate detection and
    freezes into an immutable {!Graph.t}.  All generators in {!Gen} and
    all dynamic-network families construct graphs through this
    module. *)

type t

val create : int -> t
(** [create n] starts an edgeless builder over [n] nodes.
    @raise Invalid_argument if [n < 0]. *)

val degree : t -> int -> int

val has_edge : t -> int -> int -> bool

val add_edge : t -> int -> int -> bool
(** [add_edge b u v] inserts the undirected edge; returns [false] if it
    was already present.  @raise Invalid_argument on a self-loop or an
    out-of-range endpoint. *)

val add_edge_exn : t -> int -> int -> unit
(** Like {!add_edge} but raises [Invalid_argument] on a duplicate: used
    by constructions that must never collide (e.g. the bipartite string
    of Section 4). *)

val remove_edge : t -> int -> int -> bool
(** Returns [false] if the edge was absent. *)

val add_clique : t -> int array -> unit
(** Pairwise-connect the given nodes (duplicates with existing edges
    are silently kept single). *)

val add_complete_bipartite : t -> int array -> int array -> unit
(** Connect every node of the first side to every node of the second.
    @raise Invalid_argument if the sides intersect. *)

val freeze : t -> Graph.t
(** Freeze into an immutable graph.  The builder remains usable (the
    frozen graph is a snapshot). *)
