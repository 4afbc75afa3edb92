(** The dynamic-network bound of Giakkoupis, Sauerwald & Stauffer
    (ICALP 2014, [17] in the paper): w.h.p. the (synchronous) push–pull
    spread time is at most

    [min t such that sum_{p<=t} Phi(G(p)) >= c * M(G) * log n]

    where [M(G) = max_u Delta_u / delta_u] is the worst per-node
    degree fluctuation across the whole time window.

    The paper's Section 1.2 example — alternating complete and cubic
    regular graphs — makes [M(G) = (n-1)/3] and this bound
    [Theta(n log n)], an [Theta(n)] factor above the diligence bound;
    experiment E9 reproduces that separation. *)

open Rumor_rng
open Rumor_dynamic

type result = {
  bound_time : int option;  (** the bound, [None] if not reached *)
  m_factor : float;  (** the measured [M(G)] over the window *)
}

val bound : ?c:float -> ?steps:int -> Rng.t -> Dynet.t -> result
(** [bound rng net] spawns an instance, watches [steps] (default 256)
    graphs (empty informed set, as in {!Bounds.profile}), accumulates
    per-step conductances and per-node degree extremes, and evaluates
    the bound with constant [c] (default 1).  Isolated nodes make
    [M(G)] infinite (their [delta_u] is 0), matching the bound's
    connectivity requirement. *)
