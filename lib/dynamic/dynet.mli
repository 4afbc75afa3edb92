(** Dynamic evolving networks [G = {G(t)}] (Section 2 of the paper).

    A dynamic network exposes one graph per discrete time step
    [t = 0, 1, ...] over a fixed node universe.  The paper's tight
    constructions are {e adaptive}: the graph at step [t+1] depends on
    the informed set, so the interface threads the simulator's informed
    set into each step.

    A {!t} is a reusable {e description}; {!spawn} creates a fresh
    stateful {!instance} for one simulation run (deterministic given
    the supplied RNG).  Instances must be stepped with consecutive
    [step] values starting at 0; each family enforces this. *)

open Rumor_util
open Rumor_rng

type delta = {
  added : (int * int) array;  (** edges present now but not before *)
  removed : (int * int) array;  (** edges present before but not now *)
  degree_changed : int array;
      (** nodes whose degree differs from the previous step, sorted
          ascending; always exactly the nodes with a non-zero net edge
          balance in [added]/[removed] *)
}
(** Structural difference between consecutive exposed graphs.  The
    contract is [Graph.patch prev ~add:added ~remove:removed = next]:
    a simulator holding the previous graph can reconstruct — and
    incrementally re-weight — the current one in O(delta) instead of
    O(n + m).  Edge orientation is free; build values with
    {!make_delta} so [degree_changed] stays consistent. *)

type info = {
  graph : Rumor_graph.Graph.t;
  changed : bool;
      (** [false] when the graph is physically identical to the
          previous step's — lets the simulators skip cut-rate
          rebuilds. Must be [true] at step 0. *)
  delta : delta option;
      (** The edge delta from the previous step's exposed graph, when
          the family can produce one cheaply.  [None] is always legal
          (simulators fall back to a full rebuild); a [Some] must be
          exact.  Meaningless at step 0 (no previous graph) — leave it
          [None] there. *)
  phi : float option;
      (** Analytic conductance of this step's graph, when the family
          knows a closed form (used by the bound calculators; [None]
          falls back to exact/spectral computation). *)
  rho : float option;  (** Analytic diligence [rho(G(t))]. *)
  rho_abs : float option;  (** Analytic absolute diligence. *)
}

type instance

val next : instance -> informed:Bitset.t -> info
(** Advance the instance by one discrete step and return the exposed
    graph.  The [informed] set is the simulator's informed set at the
    {e start} of the step (the adaptive families' [I_t]). *)

type t = {
  n : int;  (** number of nodes, fixed across steps *)
  name : string;
  source_hint : int option;
      (** where the paper's statement injects the rumor, when it
          matters (e.g. a node of [A_0] for Theorem 1.2); [None] means
          "any node" *)
  spawn : Rng.t -> instance;
}

val make_instance : (step:int -> informed:Bitset.t -> info) -> instance
(** Wrap a step function; the wrapper maintains and supplies the step
    counter. *)

val make_delta :
  added:(int * int) array -> removed:(int * int) array -> delta
(** Package an edge delta, deriving [degree_changed] from the net
    per-node balance of the two arrays (nodes whose additions and
    removals cancel are excluded), ascending.  O(max node id + delta).
    @raise Invalid_argument on a negative node id. *)

val delta_of_graphs :
  ?max_edges:int -> Rumor_graph.Graph.t -> Rumor_graph.Graph.t ->
  delta option
(** [delta_of_graphs prev next] diffs two snapshots into a delta,
    or [None] when the edge delta exceeds [max_edges] (for families
    whose occasional rewirings are so large that a full rebuild is
    cheaper than replaying the delta). *)

val delta_size : delta -> int
(** Number of edge insertions plus removals. *)

val info_of_graph :
  ?changed:bool -> ?delta:delta -> ?phi:float -> ?rho:float ->
  ?rho_abs:float -> Rumor_graph.Graph.t -> info

val of_static :
  ?name:string -> ?phi:float -> ?rho:float -> ?rho_abs:float ->
  Rumor_graph.Graph.t -> t
(** A static network viewed as the constant dynamic network. *)
