(** Result record shared by the two asynchronous engines. *)

open Rumor_util

type t = {
  time : float;
      (** spread time when [complete]; time reached when the horizon
          or event budget cut the run short *)
  complete : bool;  (** did every node get informed before the horizon *)
  informed : Bitset.t;  (** final informed set *)
  events : int;
      (** informing contacts (cut engine) or clock ticks (tick
          engine) processed *)
  steps : int;  (** discrete network steps consumed *)
  lost : int;
      (** rumor-carrying messages dropped by an injected
          {!Rumor_faults.Fault_plan} ([0] without faults) *)
  trace : (float * int) array;
      (** [(time, informed-count)] trajectory; empty unless tracing was
          requested.  Always starts with [(0., 1)] when recorded. *)
  informed_times : float array;
      (** per-node informing time: [informed_times.(u)] is when [u]
          learned the rumor ([0.] for the source, [nan] if never).
          Always recorded. *)
}
