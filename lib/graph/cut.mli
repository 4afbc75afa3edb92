(** Cuts, conductance and diligence — the graph parameters the paper's
    bounds are stated in (Equations (2), (4) and the absolute-diligence
    definition of Section 5).

    Exact computations enumerate all vertex subsets and are therefore
    restricted to small graphs (they raise beyond
    {!exact_size_limit}); they exist to cross-validate the analytic
    closed forms carried by the constructed dynamic families and the
    spectral estimates of {!Spectral}. *)

open Rumor_util

val exact_size_limit : int
(** Largest [n] accepted by the exact (subset-enumerating)
    functions. *)

val conductance_of_cut : Graph.t -> Bitset.t -> float
(** [|E(S, S-bar)| / min(vol S, vol S-bar)] (Equation 2 for one set).
    @raise Invalid_argument if either side has zero volume. *)

val conductance_exact : Graph.t -> float
(** [Phi(G)] by subset enumeration; [0.] if disconnected.
    @raise Invalid_argument if [n > exact_size_limit] or [m = 0]. *)

val diligence_exact : Graph.t -> float
(** [rho(G)] by subset enumeration (Equation 4); [0.] if disconnected
    (the paper's convention).
    @raise Invalid_argument if [n > exact_size_limit]. *)
