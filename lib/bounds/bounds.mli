(** The paper's spread-time upper bounds.

    - Theorem 1.1: with probability [1 - n^-c] the rumor spreads within
      [T(G, c) = min t such that sum_{p<=t} Phi(G(p)) rho(p) >= C log n]
      with [C = (10c + 20) / c0] and [c0 = 1/2 - 1/e].
    - Theorem 1.3: w.h.p. the rumor spreads within
      [T_abs(G) = min t such that sum_{p<=t} ceil(Phi(G(p))) rho-bar(p) >= 2n]
      where [ceil(Phi) = 1] iff the step's graph is connected.
    - Corollary 1.6: the minimum of the two.

    Bounds are computed over a {!step_profile} array describing the
    per-step graph parameters; {!profile} extracts one from any
    dynamic-network description, preferring each family's analytic
    closed forms and falling back to exact (small [n]) or spectral
    computation. *)

open Rumor_rng
open Rumor_dynamic

val big_c : c:float -> float
(** [C = (10 c + 20) / c0] of Theorem 1.1.
    @raise Invalid_argument if [c < 1] (the theorem's regime). *)

type step_profile = {
  phi : float;  (** conductance of the step's graph (0 if disconnected) *)
  rho : float;  (** diligence (0 if disconnected); [nan] when unknown *)
  rho_abs : float;  (** absolute diligence (0 on an edgeless graph) *)
  connected : bool;
}

val profile : ?steps:int -> Rng.t -> Dynet.t -> step_profile array
(** [profile rng net] spawns an instance and reads [steps] (default
    256) step profiles, feeding the family an empty informed set (all
    families in this repo expose step-invariant parameter values, so
    the profile is informed-set independent).  Fallback order per
    parameter: the family's analytic value; exact enumeration when
    [n <= Cut.exact_size_limit]; spectral sweep for [phi]; [nan] for
    [rho]. *)

val first_time : target:float -> (int -> float) -> max_steps:int -> int option
(** [first_time ~target f ~max_steps] is the least [t < max_steps] with
    [sum_{p=0}^{t} f p >= target], if any.  NaN contributions are
    rejected with [Invalid_argument]. *)

val theorem_1_1_time : c:float -> n:int -> step_profile array -> int option
(** [T(G, c)] over the profile, [None] if the profile is too short.
    @raise Invalid_argument if any needed [rho] is [nan]. *)

val theorem_1_3_time : n:int -> step_profile array -> int option
(** [T_abs(G)] over the profile. *)

val corollary_1_6_time : c:float -> n:int -> step_profile array -> int option
(** [min(T(G,c), T_abs(G))]; [None] only if both are. *)

val theorem_1_1_closed_form : c:float -> n:int -> phi_rho:float -> float
(** [T(G, c)] when [Phi rho] is the same every step:
    [C log n / (Phi rho)].
    @raise Invalid_argument if [phi_rho <= 0]. *)

val theorem_1_3_closed_form : n:int -> rho_abs:float -> float
(** [T_abs] for an always-connected network with constant absolute
    diligence: [2n / rho-bar]. *)
