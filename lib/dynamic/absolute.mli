(** The absolutely [rho]-diligent dynamic network of Section 5.1
    (Theorem 1.5): spread time [Theta(n / rho)], matching the
    Theorem 1.3 upper bound up to constants.

    Structure at every step: a 4-regular-except-one graph
    [G(A_t, 4, Delta)] whose special degree-[Delta] node is bridged by
    a single edge to a [Delta]-regular graph [G(B_t, Delta)], with
    [Delta ∈ {ceil(1/rho), ceil(1/rho)+1}] even.  Informed B-nodes
    defect to the A-side each step; the network freezes once
    [|B| < n/6].  The single bridge of pulling rate [2/(Delta+1)]
    is the bottleneck the lower bound rides on. *)

val admissible : n:int -> rho:float -> bool
(** The paper's regime is [10/n <= rho <= 1] (plus small-size
    slack). *)

val network : n:int -> rho:float -> Dynet.t
(** @raise Invalid_argument if not {!admissible}.  Source hint: a
    regular node of [A_0]. *)

val delta_of_rho : float -> int
(** The even member of [{ceil(1/rho), ceil(1/rho)+1}]. *)

val spread_lower_bound : n:int -> rho:float -> float
(** The Theorem 1.5 lower bound evaluated with its explicit constant:
    [n0 * Delta / 4] where [n0 = n / (10 + 10 mu)] with [mu = Theta(1)]
    taken as 1 — i.e. [n * Delta / 80]. *)
