(** Mobile-agent proximity networks (Pettarin et al. [22], Lam et al.
    [20], cited in the paper's related work): agents perform lazy
    random walks on a torus grid and two agents are linked whenever
    their Chebyshev (L-infinity) torus distance is at most a radius.

    This family is often disconnected — exactly the situation the
    paper's convention [rho(G) = 0] and [ceil(Phi(G)) = 0] covers — so
    it doubles as a robustness workload for the simulators and the
    bound calculators. *)

val network :
  agents:int -> width:int -> height:int -> radius:int -> Dynet.t
(** One node per agent.  Each step every agent stays put or moves to
    one of its 4 lattice neighbours, uniformly (probability 1/5
    each).  Initial positions are uniform.
    @raise Invalid_argument on non-positive dimensions, agent count,
    or radius. *)
