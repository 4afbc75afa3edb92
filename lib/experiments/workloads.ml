open Rumor_rng
open Rumor_stats
open Rumor_graph
open Rumor_dynamic
module Run = Rumor_sim.Run
module Adaptive = Rumor_stats.Adaptive

type measured = {
  summary : Summary.t;
  completed : int;
  reps : int;
}

let measure_async ?reps ?horizon ?engine ?source rng net =
  match Run.default_adaptive () with
  | Some config ->
    (* Campaign-wide adaptive opt-in (see [Run.set_default_adaptive]):
       the experiment's requested replicate count becomes the budget —
       sequential stopping may only save replicates relative to the
       fixed path, never exceed it. *)
    let config =
      match reps with
      | Some r when r >= 1 ->
        {
          config with
          Adaptive.max_reps = r;
          min_reps = min config.Adaptive.min_reps r;
        }
      | _ -> config
    in
    let a = Run.async_spread_sweep_adaptive ?horizon ?engine ?source ~config rng net in
    let mc = Run.mc_of_sweep a.Run.sweep in
    {
      summary = Summary.of_samples mc.Run.times;
      completed = mc.Run.completed;
      reps = a.Run.consumed;
    }
  | None ->
    let mc = Run.async_spread_times ?reps ?horizon ?engine ?source rng net in
    {
      summary = Summary.of_samples mc.Run.times;
      completed = mc.Run.completed;
      reps = mc.Run.reps;
    }

let measure_sync ?reps ?max_rounds ?source rng net =
  let mc = Run.sync_spread_rounds ?reps ?max_rounds ?source rng net in
  {
    summary = Summary.of_samples mc.Run.times;
    completed = mc.Run.completed;
    reps = mc.Run.reps;
  }

type static_case = {
  label : string;
  net : Dynet.t;
  n : int;
  phi : float;
  rho : float;
  rho_abs : float;
}

let clique_phi n = float_of_int ((n / 2) + (n mod 2)) /. float_of_int (n - 1)

let static_zoo ?(full = false) rng =
  let n = if full then 512 else 128 in
  let d_hyper = if full then 9 else 7 in
  let reg_d = 8 in
  let clique = Gen.clique n in
  let star = Gen.star n in
  let cyc = Gen.cycle n in
  let hyper = Gen.hypercube d_hyper in
  let regular = Gen.random_connected_regular rng n reg_d in
  let phi_regular = Spectral.conductance_sweep (Rng.split rng) regular in
  [
    {
      label = "clique";
      net = Dynet.of_static ~name:"clique" clique;
      n;
      phi = clique_phi n;
      rho = 1.;
      rho_abs = 1. /. float_of_int (n - 1);
    };
    {
      label = "star";
      net = Dynet.of_static ~name:"star" star;
      n;
      phi = 1.;
      rho = 1.;
      rho_abs = 1.;
    };
    {
      label = "cycle";
      net = Dynet.of_static ~name:"cycle" cyc;
      n;
      phi = 2. /. float_of_int n;
      rho = 1.;
      rho_abs = 0.5;
    };
    {
      label = "hypercube";
      net = Dynet.of_static ~name:"hypercube" hyper;
      n = 1 lsl d_hyper;
      phi = 1. /. float_of_int d_hyper;
      rho = 1.;
      rho_abs = 1. /. float_of_int d_hyper;
    };
    {
      label = Printf.sprintf "random-%d-regular" reg_d;
      net = Dynet.of_static ~name:"random-regular" regular;
      n;
      phi = phi_regular;
      rho = 1.;
      rho_abs = 1. /. float_of_int reg_d;
    };
  ]
