(* The cut engine's hot path.  Two guards:

   - Sample pins: outcome digests of [Async_cut.run] recorded with the
     closure-based neighbour loops the engine used to have, compared bit
     for bit.  Any rewrite of the
     engine loops (or of the Fenwick tree, the CSR graph or the fault
     plan under them) must reproduce every sample draw for draw, on
     static and edge-Markovian networks, for every protocol and every
     fault class.
   - Allocation: the engine's event loop allocates no memory
     proportional to the degree.  Measured with [Gc.minor_words] per
     informing event on a dense graph, where every event re-weights
     ~n/2 neighbours. *)

open Rumor_core.Rumor

(* --- sample pins --- *)

let n = 48

let markovian ~q =
  let p = 4. /. float_of_int n in
  let init =
    Gen.erdos_renyi (Rng.create 5) n
      (Markovian.stationary_edge_probability ~p ~q)
  in
  Markovian.network ~n ~p ~q ~init ()

let nets =
  [
    ("clique", Dynet.of_static (Gen.clique n));
    ("regular", Dynet.of_static (Gen.random_connected_regular (Rng.create 3) n 6));
    ("ba", Dynet.of_static (Gen.barabasi_albert (Rng.create 4) n 3));
    ("markov-q0.5", markovian ~q:0.5);
    ("markov-q0.05", markovian ~q:0.05);
  ]

let protocols =
  [
    ("push", Protocol.Push); ("pull", Protocol.Pull);
    ("push-pull", Protocol.Push_pull);
  ]

let half u = u < n / 2

let plans =
  [
    ("rates", Fault_plan.make ~node_rate:(fun u -> 0.5 +. float_of_int (u mod 3)) ());
    ("churn", Fault_plan.node_churn ~crash:0.1 ~recover:0.5);
    ("loss", Fault_plan.message_loss 0.3);
    ("partition", Fixtures.partition_window ~from_step:0 ~until_step:2 ~side:half);
    ( "all",
      Fault_plan.make ~loss:0.2
        ~node_rate:(fun u -> 1. +. float_of_int (u mod 2))
        ~churn:{ Fault_plan.crash = 0.05; recover = 0.6 }
        ~partitions:[ { Fault_plan.from_step = 1; until_step = 3; side = half } ]
        () );
  ]

(* Every observable of a run, floats by their bit patterns. *)
let digest_runs ?faults ?rebuild_every protocol net =
  let b = Buffer.create 4096 in
  let bits x =
    Buffer.add_string b (Printf.sprintf "%Lx;" (Int64.bits_of_float x))
  in
  for seed = 1 to 3 do
    let r =
      Async_cut.run ~protocol ?faults ?rebuild_every (Rng.create seed) net
        ~source:0
    in
    bits r.Async_result.time;
    Buffer.add_string b
      (Printf.sprintf "%b;%d;%d;%d;%d;" r.complete r.events r.steps r.lost
         (Bitset.cardinal r.informed));
    Array.iter bits r.informed_times
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let cases =
  List.concat_map
    (fun (nn, net) ->
      List.map
        (fun (pn, p) -> (nn ^ "/" ^ pn, fun () -> digest_runs p net))
        protocols)
    nets
  @ List.concat_map
      (fun (fn, faults) ->
        List.map
          (fun (nn, net) ->
            ( nn ^ "/push-pull/" ^ fn,
              fun () -> digest_runs ~faults Protocol.Push_pull net ))
          (List.filter (fun (nn, _) -> nn = "clique" || nn = "markov-q0.5") nets))
      plans
  @ [
      ( "clique/push-pull/rebuild-every-7",
        fun () ->
          digest_runs ~rebuild_every:7 Protocol.Push_pull
            (List.assoc "clique" nets) );
      ( "markov-q0.05/push/rates/rebuild-every-5",
        fun () ->
          digest_runs ~rebuild_every:5 ~faults:(List.assoc "rates" plans)
            Protocol.Push (List.assoc "markov-q0.05" nets) );
    ]

(* Recorded before the neighbour loops were rewritten; never
   regenerate them to make a change pass. *)
let pinned =
  [
    ("clique/push", "d5ec682e9df3cd095cbea617429305ae");
    ("clique/pull", "d5ec682e9df3cd095cbea617429305ae");
    ("clique/push-pull", "23548ac57563fc3855a8b8616f697e0b");
    ("regular/push", "b3dad9d3943e6d1f8233d5859b3da02a");
    ("regular/pull", "b3dad9d3943e6d1f8233d5859b3da02a");
    ("regular/push-pull", "c0c306019d3a62f9b28c64561add114e");
    ("ba/push", "691c004f72d7eccc82bec901945c6991");
    ("ba/pull", "9e291eafb8ec52da73b073b4f38b3c91");
    ("ba/push-pull", "7954669bc0fcf0513c9c5b009ee5a219");
    ("markov-q0.5/push", "02222f6a5487e4a49749c601285176b1");
    ("markov-q0.5/pull", "c6c7faf157c886d40eb52a1fedcdc2d7");
    ("markov-q0.5/push-pull", "51fb7954840d0158756d7c85601a0f1a");
    ("markov-q0.05/push", "c361c19f17c4f882087ca4e99af86c8e");
    ("markov-q0.05/pull", "2a0e06c507ec70572c1a3443cf76237c");
    ("markov-q0.05/push-pull", "c5804c8a1f5a24997db8376f72d6a758");
    ("clique/push-pull/rates", "25aa6b8513f915b1ce4db023e50b5e99");
    ("markov-q0.5/push-pull/rates", "a5246cb73d47393cd738b69f255f66a4");
    ("clique/push-pull/churn", "581157c6fa7148b6990a3e4b5094b925");
    ("markov-q0.5/push-pull/churn", "ec48f33b0d5a6908a6b5cb57cc832c9d");
    ("clique/push-pull/loss", "7672d05899572a9b11a227a487a4641c");
    ("markov-q0.5/push-pull/loss", "2ff95beb02376faa1458bc9b14503b58");
    ("clique/push-pull/partition", "5bb158a043ad90b34d60e49d28cb2013");
    ("markov-q0.5/push-pull/partition", "27c7c79bd5584cc4eb7059d186961901");
    ("clique/push-pull/all", "d1d6f60812c7af6b51dc3e5690d596ed");
    ("markov-q0.5/push-pull/all", "e027202ef51fe58fd9012c0113a45788");
    ("clique/push-pull/rebuild-every-7", "b9d4996bab96d905b4194fe55055f71c");
    ("markov-q0.05/push/rates/rebuild-every-5", "11d76e499189bdc4d8cc70e0b34943db");
  ]

let test_pins () =
  let bad =
    List.filter_map
      (fun (name, run) ->
        let got = run () in
        match List.assoc_opt name pinned with
        | Some want when want = got -> None
        | _ -> Some (Printf.sprintf "(%S, %S);" name got))
      cases
  in
  if bad <> [] then
    Alcotest.failf "sample digests moved:\n%s" (String.concat "\n" bad)

(* --- allocation --- *)

(* On clique-256 an informing event re-weights ~128 neighbours on
   average, so one boxed float per neighbour update alone would cost
   ~256 words per event.  What remains under the bound is the per-event
   constant: the event value, a few boxed floats across module
   boundaries, amortised step and rebuild work. *)
let max_words_per_event = 200.

let words_per_event ?faults () =
  let net = Dynet.of_static (Gen.clique 256) in
  let run seed = Async_cut.run ?faults (Rng.create seed) net ~source:0 in
  ignore (run 1);
  let before = Gc.minor_words () in
  let r = run 2 in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "run completes" true r.Async_result.complete;
  words /. float_of_int r.events

let check_words name w =
  if w > max_words_per_event then
    Alcotest.failf "%s: %.1f minor words per event (bound %.0f)" name w
      max_words_per_event

let test_alloc_fault_free () = check_words "fault-free clique-256" (words_per_event ())

(* The restricted path: every event reads per-node clock rates, and the
   events of the first steps run under a partition window that cuts the
   clique in half. *)
let test_alloc_restricted () =
  let faults =
    Fault_plan.make
      ~node_rate:(fun u -> 0.5 +. float_of_int (u mod 4))
      ~partitions:
        [ { Fault_plan.from_step = 0; until_step = 3; side = (fun u -> u land 1 = 0) } ]
      ()
  in
  check_words "clique-256 with node rates and a partition"
    (words_per_event ~faults ())

let () =
  Alcotest.run "engine"
    [
      ("pins", [ Alcotest.test_case "outcome digests" `Quick test_pins ]);
      ( "alloc",
        [
          Alcotest.test_case "fault-free clique" `Quick test_alloc_fault_free;
          Alcotest.test_case "rates and partition" `Quick test_alloc_restricted;
        ] );
    ]
