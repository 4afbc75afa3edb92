(** Cheap (polynomial-time) graph parameters: absolute diligence is an
    O(m) quantity (Section 5). *)

val absolute_diligence : Graph.t -> float
(** [rho-bar(G) = min over edges {u,v} of max(1/d_u, 1/d_v)]; the paper
    sets it to [0.] on an empty (edgeless) graph. *)
