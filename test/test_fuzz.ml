(* Cross-family fuzz: random combinations of network family, engine,
   protocol and seed must never raise, and the universal invariants
   must hold (monotone informed set containing the source, event
   accounting, horizon discipline).  This is the safety net for the
   interactions the per-module suites cannot enumerate. *)

open Rumor_core.Rumor

let check = Alcotest.check
let bool = Alcotest.bool

let pick_family rng =
  let n = 16 + Rng.int rng 48 in
  match Rng.int rng 11 with
  | 0 -> Dynet.of_static (Gen.clique n)
  | 1 -> Dynet.of_static (Gen.cycle (max 3 n))
  | 2 -> Dynet.of_static (Gen.erdos_renyi rng n 0.2)
  | 3 -> Dichotomy.g1 ~n:(max 4 n)
  | 4 -> Dichotomy.g2 ~n:(max 2 n)
  | 5 -> Markovian.network ~n ~p:0.2 ~q:0.3 ()
  | 6 -> Mobile.network ~agents:n ~width:8 ~height:8 ~radius:2
  | 7 ->
    Combinators.intermittent
      ~every:(1 + Rng.int rng 3)
      (Dynet.of_static (Gen.cycle (max 3 n)))
  | 8 ->
    Combinators.with_edge_dropout
      ~p:(Rng.float rng *. 0.7)
      (Dynet.of_static (Gen.clique n))
  | 9 ->
    let nn = max 8 n in
    Adversary.greedy_min_cut ~n:nn ~degree_budget:(2 + (2 * Rng.int rng 3))
  | 10 ->
    Fixtures.with_node_outage
      ~p:(Rng.float rng *. 0.5)
      (Dynet.of_static (Gen.clique n))
  | _ -> assert false

let run_one rng =
  let net = pick_family rng in
  let n = net.Dynet.n in
  let source = Rng.int rng n in
  let seed = Rng.int rng 1_000_000 in
  let child = Rng.create seed in
  match Rng.int rng 4 with
  | 0 ->
    let protocol = Rng.choose rng [| Protocol.Push; Protocol.Pull; Protocol.Push_pull |] in
    let r = Async_cut.run ~protocol ~horizon:200. child net ~source in
    let informed = r.Async_result.informed in
    Bitset.mem informed source
    && Bitset.cardinal informed >= 1
    && r.Async_result.time <= 200. +. 1.
    && (not r.Async_result.complete) = (Bitset.cardinal informed < n)
  | 1 ->
    let r = Async_tick.run ~horizon:100. child net ~source in
    Bitset.mem r.Async_result.informed source
  | 2 ->
    let r = Sync.run ~max_rounds:300 child net ~source in
    Bitset.mem r.Sync.informed source
    && Array.length r.Sync.trace = r.Sync.rounds + 1
  | 3 ->
    let r = Flooding.run ~max_rounds:300 child net ~source in
    Bitset.mem r.Flooding.informed source
  | _ -> assert false

let test_fuzz () =
  let rng = Rng.create 20260706 in
  for i = 1 to 300 do
    let ok =
      try run_one rng
      with e ->
        Alcotest.failf "fuzz iteration %d raised %s" i (Printexc.to_string e)
    in
    check bool (Printf.sprintf "invariants at iteration %d" i) true ok
  done

(* --- split-seed determinism property --- *)

let prop_sweep_fingerprints_job_invariant =
  (* For any sweep seed and any job count, the multiset (in fact the
     ordered array) of per-replicate RNG fingerprints — the checkpoint
     keys — must equal the sequential run's: replicate streams are
     derived from the replicate index, never from execution order. *)
  QCheck.Test.make ~count:30
    ~name:"sweep fingerprints are job-count invariant"
    QCheck.(pair (int_range 0 1_000_000) (int_range 2 6))
    (fun (seed, jobs) ->
      let net = Dynet.of_static (Gen.clique 8) in
      let reps = 9 in
      let seq = Run.async_spread_sweep ~jobs:1 ~reps (Rng.create seed) net in
      let par = Run.async_spread_sweep ~jobs ~reps (Rng.create seed) net in
      seq.Run.seeds = par.Run.seeds && seq.Run.outcomes = par.Run.outcomes)

(* --- adaptive stopping properties --- *)

let prop_adaptive_ci_never_wider =
  (* Whenever the adaptive sweep reports Converged, the CI half-width
     it reports is at or below the requested target — the whole point
     of sequential stopping; a wider report would be a lie. *)
  QCheck.Test.make ~count:25 ~name:"adaptive converged CI never wider"
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 20))
    (fun (seed, w10) ->
      let target = 0.05 *. float_of_int w10 in
      let config =
        Adaptive.config ~min_reps:8 ~max_reps:96 ~chunk:8
          (Adaptive.Abs target)
      in
      let net = Dynet.of_static (Gen.clique 24) in
      let a = Run.async_spread_sweep_adaptive ~config (Rng.create seed) net in
      match a.Run.reason with
      | Adaptive.Converged ->
        a.Run.half_width <= target && a.Run.consumed <= 96
      | Adaptive.Budget ->
        (* budget exhaustion must consume exactly the budget *)
        a.Run.consumed = 96)

let prop_adaptive_prefix_bit_identical =
  (* For any seed, any job count and either width regime, the decided
     prefix equals (byte-for-byte) the same prefix of a fixed-count
     sweep at the full budget — so checkpoints, the serve store and
     WAL replay remain valid across the two modes. *)
  QCheck.Test.make ~count:20 ~name:"adaptive prefix bit-identical at any jobs"
    QCheck.(triple (int_range 0 1_000_000) (int_range 1 6) bool)
    (fun (seed, jobs, rel) ->
      let width = if rel then Adaptive.Rel 0.2 else Adaptive.Abs 0.3 in
      let config =
        Adaptive.config ~min_reps:8 ~max_reps:48 ~chunk:8 width
      in
      let net = Dynet.of_static (Gen.cycle 12) in
      let a =
        Run.async_spread_sweep_adaptive ~jobs ~config (Rng.create seed) net
      in
      let fixed =
        Run.async_spread_sweep ~jobs:1 ~reps:48 (Rng.create seed) net
      in
      let k = a.Run.consumed in
      k >= 8 && k <= 48
      && a.Run.sweep.Run.outcomes = Array.sub fixed.Run.outcomes 0 k
      && a.Run.sweep.Run.seeds = Array.sub fixed.Run.seeds 0 k)

let () =
  Alcotest.run "fuzz"
    [
      ("cross-family", [ Alcotest.test_case "300 random runs" `Slow test_fuzz ]);
      ( "determinism",
        [ QCheck_alcotest.to_alcotest prop_sweep_fingerprints_job_invariant ] );
      ( "adaptive",
        [
          QCheck_alcotest.to_alcotest prop_adaptive_ci_never_wider;
          QCheck_alcotest.to_alcotest prop_adaptive_prefix_bit_identical;
        ] );
    ]
