(** Combinators over dynamic networks.

    These build new adversaries/environments out of existing ones:
    duty-cycled connectivity ({!intermittent} — exercising the
    [ceil(Phi) = 0] accounting of Theorem 1.3), per-step lossy links
    ({!with_edge_dropout} — wireless-style fading over any base
    network).

    Analytic parameter annotations of the base network are dropped
    wherever the transformation can invalidate them. *)

val intermittent : every:int -> Dynet.t -> Dynet.t
(** [intermittent ~every net] exposes the base network's next graph on
    steps divisible by [every] and the empty (edgeless) graph on all
    other steps; the base instance only advances on exposed steps, so
    its own evolution is slowed by the duty cycle.  The spread time
    scales by roughly [every] (experiment E12).
    @raise Invalid_argument if [every < 1]. *)

val with_edge_dropout : p:float -> Dynet.t -> Dynet.t
(** [with_edge_dropout ~p net] removes each edge of each step's graph
    independently with probability [p] (resampled every step, even
    when the base graph is frozen).
    @raise Invalid_argument if [p] is outside [[0, 1]]. *)
