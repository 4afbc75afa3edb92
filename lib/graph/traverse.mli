(** Graph connectivity by breadth-first search.

    Connectivity decides whether the paper's parameters are defined at
    all ([rho(G) = 0] on a disconnected graph; [ceil(Phi(G)) = 0] in
    Theorem 1.3). *)

val is_connected : Graph.t -> bool
(** [true] on the empty and one-node graph. *)
