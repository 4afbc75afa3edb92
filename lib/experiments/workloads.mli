(** Shared measurement helpers and the static-network zoo used by
    several experiments. *)

open Rumor_rng
open Rumor_stats
open Rumor_dynamic

type measured = {
  summary : Summary.t;
  completed : int;
  reps : int;
}

val measure_async :
  ?reps:int -> ?horizon:float -> ?engine:Rumor_sim.Run.engine -> ?source:int ->
  Rng.t -> Dynet.t -> measured
(** When a process-wide adaptive config is installed
    ({!Rumor_sim.Run.set_default_adaptive}), the measurement runs the
    sequentially stopped sweep with [reps] as its replicate budget and
    reports the consumed prefix; otherwise (the default) the classic
    fixed-count sampler, byte-identical to before. *)

val measure_sync :
  ?reps:int -> ?max_rounds:int -> ?source:int -> Rng.t -> Dynet.t -> measured

(** A static network together with its known graph parameters. *)
type static_case = {
  label : string;
  net : Dynet.t;
  n : int;
  phi : float;  (** closed form where known, spectral sweep otherwise *)
  rho : float;
  rho_abs : float;
}

val static_zoo : ?full:bool -> Rng.t -> static_case list
(** Clique, star, cycle, hypercube and a random 8-regular graph at
    quick (or full) sizes.  All five are regular or star-shaped, so
    diligence is exactly 1 and the other parameters have closed
    forms (the random-regular conductance is a spectral sweep
    estimate). *)
