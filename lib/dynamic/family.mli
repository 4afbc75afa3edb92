(** Network construction from flat, serializable parameters.

    One record names every shipped family with its knobs; {!build}
    instantiates the {!Dynet.t}.  This is the construction path shared
    by the CLI front end ([-N]/[--network] and friends) and the serve
    layer, whose cached queries must rebuild {e exactly} the network
    the offline command would have: randomized families ([regular],
    [er]) draw from [Rng.create seed], so a [params] value is a
    complete, reproducible network description. *)

type params = {
  family : string;  (** one that {!is_known} accepts (case-insensitive) *)
  n : int;  (** number of nodes *)
  rho : float;  (** diligence parameter of the adaptive families *)
  degree : int;  (** degree for [regular] *)
  p : float;  (** edge/birth probability ([er], [markovian]) *)
  q : float;  (** edge death probability ([markovian]) *)
  seed : int;  (** RNG seed for the randomized constructions *)
}

val default : family:string -> n:int -> params
(** The CLI's default knobs: [rho = 0.25], [degree = 8], [p = 0.05],
    [q = 0.2], [seed = 2020]. *)

val is_known : string -> bool

val build : params -> Dynet.t
(** @raise Failure on an unknown family name. *)

val static_graph : params -> Rumor_graph.Graph.t option
(** The exact graph a {e static} family simulates ([clique], [star],
    [cycle], [path], [hypercube], [regular], [er] — randomized ones
    regenerate from [Rng.create seed], so this is bit-identical to
    what {!build} wraps); [None] for the dynamic families.  This is
    the control-variate anchor for the adaptive runner
    ({!Rumor_sim.Run.async_spread_sweep_adaptive}'s [?control]): a
    closed-form Rao–Blackwell replay is only sound against the very
    graph the replicates ran on. *)
