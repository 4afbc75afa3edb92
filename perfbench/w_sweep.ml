(* sweep-clique and sweep-churn: offline Monte-Carlo sweeps through
   [Run.async_spread_sweep], timed in batches of [batch] replicates at
   jobs = 1 (the base lane) and jobs = nproc (the fast lane).

   Unit [i] of both lanes runs the same seed, so every pair of units is
   also a bit-identity check across job counts, at no extra cost. *)

open Rumor_core.Rumor

type kind = Clique | Churn

type net = { dynet : Dynet.t; source : int; kind : kind }

let size (r : Pb.t) = if r.smoke then 64 else 1024

(* Replicates per timed unit: one per domain of the fast lane, so units
   stay short (tens of ms) and a run holds hundreds of them. *)
let batch = max 2 (Pool.nproc ())

let unit_seed (r : Pb.t) i = (r.seed * 1_000_003) + i

(* The static clique, through the same [Family] path the CLI uses. *)
let build_clique n =
  Pb.span "graph.build" (fun () ->
      Family.build (Family.default ~family:"clique" ~n))

(* Edge-Markovian churn with p = 4/n and q = 0.5, started from its
   stationary law G(n, p/(p+q)) so the average degree is about 8 from
   step 0. *)
let build_churn ~seed n =
  let p = 4. /. float_of_int n and q = 0.5 in
  let init =
    Pb.span "graph.build" (fun () ->
        Gen.erdos_renyi (Rng.create seed) n
          (Markovian.stationary_edge_probability ~p ~q))
  in
  Markovian.network ~n ~p ~q ~init ()

let build r kind =
  let n = size r in
  let dynet =
    match kind with
    | Clique -> build_clique n
    | Churn -> build_churn ~seed:r.Pb.seed n
  in
  { dynet; source = Run.source_of dynet None; kind }

let sweep r (dynet : Dynet.t) ~batch ~jobs i =
  Pb.span "run.sweep" (fun () ->
      Run.async_spread_sweep ~jobs ~reps:batch (Rng.create (unit_seed r i)) dynet)

(* Direct engine calls on the very streams [Run.async_spread_sweep]
   derives for unit [i]: one parent draw, then [Rng.derive base k]. *)
let direct r net i =
  let base = Rng.bits64 (Rng.create (unit_seed r i)) in
  Array.init batch (fun k ->
      Pb.span "async_cut.run" (fun () ->
          Async_cut.run (Rng.derive base k) net.dynet ~source:net.source))

let same_outcomes (a : Run.sweep) (b : Run.sweep) =
  Array.length a.outcomes = Array.length b.outcomes
  && Array.for_all2 (fun x y -> compare x y = 0) a.outcomes b.outcomes

let all_finished (s : Run.sweep) =
  Array.for_all
    (function Run.Finished _ -> true | Run.Censored _ | Run.Failed _ -> false)
    s.outcomes

(* A wrong output, for the self-test of the gates. *)
let corrupt (s : Run.sweep) =
  let o = Array.copy s.outcomes in
  (match o.(0) with
  | Run.Finished t -> o.(0) <- Run.Finished (Float.succ t)
  | _ -> o.(0) <- Run.Finished 0.);
  { s with outcomes = o }

type lanes = {
  seq : float array;  (** unit wall times at jobs = 1 *)
  par : float array;  (** unit wall times at jobs = nproc *)
  samples : float array;  (** every jobs = 1 spread time, in unit order *)
  imbalance : float array;  (** per fast unit: max/min domain busy time *)
  idle : float array;  (** per fast unit: 1 - busy / (jobs * wall) *)
}

(* The two lanes over [dynet]; used by the sweep workloads and, at
   small sizes, by the traced run of the others for the pool metrics. *)
let run_lanes ?setup r (dynet : Dynet.t) ~batch ~seconds ~min_units =
  let jobs = Pool.nproc () in
  let firsts = Hashtbl.create 64 in
  let samples = ref [] in
  let imbalance = ref [] and idle = ref [] in
  let traced i f =
    Pb.unit r i (fun () ->
        if Pb.traced r i then Obs.Metrics.enable ();
        Fun.protect ~finally:Obs.Metrics.disable f)
  in
  let seq i =
    traced i (fun () ->
        let t0 = Pb.now () in
        let s = sweep r dynet ~batch ~jobs:1 i in
        let dt = Pb.now () -. t0 in
        Hashtbl.replace firsts i s;
        Pb.check r (all_finished s) (Printf.sprintf "unit %d: unfinished replicate" i);
        Array.iter
          (function Run.Finished t -> samples := t :: !samples | _ -> ())
          s.outcomes;
        dt)
  in
  let par i =
    traced i (fun () ->
        let t0 = Pb.now () in
        let s = sweep r dynet ~batch ~jobs i in
        let dt = Pb.now () -. t0 in
        (match Pool.last () with
        | Some st when Array.length st.Pool.wall_s > 1 ->
          let w = st.Pool.wall_s in
          let busy = Array.fold_left ( +. ) 0. w in
          imbalance :=
            (Array.fold_left Float.max 0. w /. Array.fold_left Float.min infinity w)
            :: !imbalance;
          idle := (1. -. (busy /. (float_of_int st.Pool.jobs *. dt))) :: !idle
        | _ -> ());
        let s = if r.inject_wrong && i = 0 then corrupt s else s in
        Pb.check r
          (same_outcomes (Hashtbl.find firsts i) s)
          (Printf.sprintf "unit %d: jobs=%d sample differs from jobs=1" i jobs);
        Hashtbl.remove firsts i;
        dt)
  in
  let t = Pb.lanes ~seconds ~min_units ?setup [| seq; par |] in
  {
    seq = t.(0);
    par = t.(1);
    samples = Array.of_list (List.rev !samples);
    imbalance = Array.of_list !imbalance;
    idle = Array.of_list !idle;
  }

(* Exactness gates beyond job-count identity. *)
let check_outputs r net (l : lanes) =
  match net.kind with
  | Clique ->
    (* The sample mean must cover (n-1)H_{n-1}/n, the exact mean of
       the push-pull spread time on K_n, within 4 standard errors
       (two-sided level about 6e-5 per run). *)
    let n = size r in
    let exact = Limit_laws.clique_mean n in
    let xs = l.samples in
    let m = Pb.mean xs in
    let k = float_of_int (Array.length xs) in
    let var =
      Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs /. (k -. 1.)
    in
    let se = sqrt (var /. k) in
    Pb.check r
      (Float.abs (m -. exact) <= 4. *. se)
      (Printf.sprintf "clique mean %.4f vs exact %.4f (se %.4f)" m exact se)
  | Churn ->
    (* Spot replay: the first replicates of the first units, re-run
       through the engine directly, must reproduce the swept times. *)
    for i = 0 to min 2 (Array.length l.seq - 1) do
      let s = sweep r net.dynet ~batch ~jobs:1 i in
      let d = direct r net i in
      Array.iteri
        (fun k (res : Async_result.t) ->
          Pb.check r
            (res.complete && compare s.outcomes.(k) (Run.Finished res.time) = 0)
            (Printf.sprintf "unit %d replicate %d: replay differs" i k))
        d
    done
