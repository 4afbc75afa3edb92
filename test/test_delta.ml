(* The edge-delta pipeline: Graph.patch/diff, the Dynet.delta contract
   for every shipped dynamic family, and the differential guarantee
   that Async_cut's incremental delta path produces the same run
   outcomes as the full-rebuild path. *)

open Rumor_core.Rumor

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let close ?(tol = 1e-9) msg a b =
  if Float.is_nan a && Float.is_nan b then ()
  else if
    Float.abs (a -. b)
    > tol *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))
  then Alcotest.failf "%s: %.17g vs %.17g" msg a b

(* --- Graph.patch / Graph.diff --- *)

let test_patch_basic () =
  let g = Gen.cycle 5 in
  (* Orientation-free delta: (1, 0) names the edge (0, 1). *)
  let g' = Graph.patch g ~add:[| (2, 0) |] ~remove:[| (1, 0) |] in
  check int "m preserved" 5 (Graph.m g');
  check bool "added present" true (Graph.has_edge g' 0 2);
  check bool "removed absent" false (Graph.has_edge g' 0 1);
  check bool "untouched kept" true (Graph.has_edge g' 3 4);
  check int "degree 0" 2 (Graph.degree g' 0);
  (* Neighbour segments stay sorted. *)
  check (Alcotest.array int) "sorted segment" [| 2; 4 |] (Array.of_list (Fixtures.neighbours g' 0));
  (* Empty delta is the identity. *)
  check bool "empty delta" true (Graph.equal g (Graph.patch g ~add:[||] ~remove:[||]))

let test_patch_rejects () =
  let g = Gen.cycle 4 in
  Alcotest.check_raises "already present"
    (Invalid_argument "Graph.patch: added edge (0, 1) already present")
    (fun () -> ignore (Graph.patch g ~add:[| (1, 0) |] ~remove:[||]));
  Alcotest.check_raises "absent"
    (Invalid_argument "Graph.patch: removed edge (0, 2) absent") (fun () ->
      ignore (Graph.patch g ~add:[||] ~remove:[| (0, 2) |]));
  Alcotest.check_raises "repeated"
    (Invalid_argument "Graph.patch: edge (0, 2) repeated in the delta")
    (fun () -> ignore (Graph.patch g ~add:[| (0, 2) |] ~remove:[| (2, 0) |]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph.patch: added edge (0, 9) out of range") (fun () ->
      ignore (Graph.patch g ~add:[| (0, 9) |] ~remove:[||]));
  Alcotest.check_raises "self-loop"
    (Invalid_argument "Graph.patch: self-loop at 2") (fun () ->
      ignore (Graph.patch g ~add:[| (2, 2) |] ~remove:[||]))

let test_diff_roundtrip () =
  let rng = Rng.create 17 in
  for _ = 1 to 20 do
    let n = 3 + Rng.int rng 12 in
    let a = Gen.erdos_renyi (Rng.split rng) n 0.4 in
    let b = Gen.erdos_renyi (Rng.split rng) n 0.4 in
    let added, removed = Graph.diff a b in
    check bool "patch(a, diff a b) = b" true
      (Graph.equal (Graph.patch a ~add:added ~remove:removed) b);
    let added', removed' = Graph.diff b a in
    check bool "reverse diff swaps roles" true
      (added' = removed && removed' = added);
    let s, r = Graph.diff a a in
    check bool "self diff empty" true (s = [||] && r = [||])
  done;
  Alcotest.check_raises "node-count mismatch"
    (Invalid_argument "Graph.diff: node-count mismatch") (fun () ->
      ignore (Graph.diff (Gen.cycle 4) (Gen.cycle 5)))

(* The error [Graph.patch] must raise for a malformed delta, computed
   the naive way: elements in add-then-remove order, each checked for
   range, self-loop, repetition and presence in that order; the first
   failure wins.  [None] for a well-formed delta. *)
let reference_error ~n ~present add remove =
  let seen = Hashtbl.create 16 in
  let check is_add (u, v) =
    let ctx = if is_add then "added" else "removed" in
    if u < 0 || u >= n || v < 0 || v >= n then
      Some (Printf.sprintf "Graph.patch: %s edge (%d, %d) out of range" ctx u v)
    else if u = v then Some (Printf.sprintf "Graph.patch: self-loop at %d" u)
    else begin
      let key = (min u v, max u v) in
      if Hashtbl.mem seen key then
        Some
          (Printf.sprintf "Graph.patch: edge (%d, %d) repeated in the delta"
             (fst key) (snd key))
      else begin
        Hashtbl.add seen key ();
        match (is_add, Hashtbl.mem present key) with
        | true, true ->
          Some
            (Printf.sprintf "Graph.patch: added edge (%d, %d) already present"
               (fst key) (snd key))
        | false, false ->
          Some
            (Printf.sprintf "Graph.patch: removed edge (%d, %d) absent" (fst key)
               (snd key))
        | _ -> None
      end
    end
  in
  let first is_add arr =
    Array.fold_left
      (fun acc e -> match acc with Some _ -> acc | None -> check is_add e)
      None arr
  in
  match first true add with Some e -> Some e | None -> first false remove

(* One malformation of a well-formed delta: an out-of-range, self-loop,
   repeated, added-but-present, removed-but-absent or both-arrays
   element, inserted at a random position of [add] or [remove], in a
   random orientation. *)
let corrupt rng ~n ~present (add, remove) =
  let pick a = a.(Rng.int rng (Array.length a)) in
  let flip (u, v) = if Fixtures.coin rng then (v, u) else (u, v) in
  let insert a e =
    let i = Rng.int rng (Array.length a + 1) in
    Array.concat [ Array.sub a 0 i; [| e |]; Array.sub a i (Array.length a - i) ]
  in
  let node () = Rng.int rng n in
  let either e =
    if Fixtures.coin rng then (insert add e, remove) else (add, insert remove e)
  in
  let absent () =
    let rec go k =
      let u = node () and v = node () in
      if k = 0 then None
      else if u <> v && not (Hashtbl.mem present (min u v, max u v)) then Some (u, v)
      else go (k - 1)
    in
    go 64
  in
  let present_edges = Array.of_list (List.of_seq (Hashtbl.to_seq_keys present)) in
  match Rng.int rng 6 with
  | 0 ->
    let bad = if Fixtures.coin rng then n + Rng.int rng 3 else -1 - Rng.int rng 3 in
    either (flip (node (), bad))
  | 1 ->
    let u = node () in
    either (u, u)
  | 2 when Array.length add > 0 -> (insert add (flip (pick add)), remove)
  | 2 when Array.length remove > 0 -> (add, insert remove (flip (pick remove)))
  | 3 when Array.length present_edges > 0 -> (insert add (flip (pick present_edges)), remove)
  | 4 -> (
    match absent () with Some e -> (add, insert remove (flip e)) | None -> (add, remove))
  | 5 when Array.length add > 0 -> (add, insert remove (flip (pick add)))
  | 5 when Array.length remove > 0 -> (insert add (flip (pick remove)), remove)
  | _ ->
    let u = node () in
    either (u, u)

(* QCheck: a random patch sequence stays equal to a from-scratch oracle
   built from the maintained edge set, and every malformed variant of a
   round's delta (one to three malformations) raises exactly the
   reference error. *)
let prop_patch_matches_oracle =
  QCheck.Test.make ~name:"patch sequence matches from-scratch oracle"
    ~count:60
    QCheck.(pair (int_range 2 14) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let present = Hashtbl.create 16 in
      let g = ref (Gen.empty n) in
      let ok = ref true in
      for _round = 1 to 10 do
        let adds = ref [] and rems = ref [] in
        for u = 0 to n - 1 do
          for v = u + 1 to n - 1 do
            if Hashtbl.mem present (u, v) then begin
              if Rng.bernoulli rng 0.3 then rems := (u, v) :: !rems
            end
            else if Rng.bernoulli rng 0.3 then adds := (u, v) :: !adds
          done
        done;
        let delta = (Array.of_list !adds, Array.of_list !rems) in
        for _variant = 1 to 4 do
          let add, remove =
            let d = ref delta in
            for _ = 0 to Rng.int rng 3 do
              d := corrupt rng ~n ~present !d
            done;
            !d
          in
          let got =
            match Graph.patch !g ~add ~remove with
            | _ -> None
            | exception Invalid_argument m -> Some m
          in
          match (reference_error ~n ~present add remove, got) with
          | None, None -> ()
          | Some want, None ->
            QCheck.Test.fail_reportf "accepted a delta that must raise %S" want
          | None, Some got ->
            QCheck.Test.fail_reportf "rejected a well-formed delta: %S" got
          | Some want, Some got ->
            if got <> want then
              QCheck.Test.fail_reportf "raised %S, expected %S" got want
        done;
        g := Graph.patch !g ~add:(fst delta) ~remove:(snd delta);
        List.iter (fun e -> Hashtbl.replace present e ()) !adds;
        List.iter (fun e -> Hashtbl.remove present e) !rems;
        let oracle =
          Fixtures.of_edges n (List.of_seq (Hashtbl.to_seq_keys present))
        in
        if not (Graph.equal !g oracle) then ok := false;
        (* diff against the empty graph recovers the whole edge set *)
        let added, removed = Graph.diff (Gen.empty n) !g in
        if Array.length removed <> 0 || Array.length added <> Graph.m !g then
          ok := false
      done;
      !ok)

(* QCheck: [make_delta]'s [degree_changed] is the sorted set of nodes
   with a non-zero net balance, as a Hashtbl oracle counts it.  Arrays
   may be empty, and a removed copy of an added pair cancels it. *)
let prop_make_delta_matches_oracle =
  QCheck.Test.make ~name:"make_delta matches a Hashtbl oracle" ~count:200
    QCheck.(pair (int_range 1 24) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let pairs () =
        Array.init (Rng.int rng 7) (fun _ -> (Rng.int rng n, Rng.int rng n))
      in
      let added = pairs () in
      let removed =
        let r = pairs () in
        if Array.length added > 0 && Fixtures.coin rng then
          Array.append r (Array.sub added 0 (1 + Rng.int rng (Array.length added)))
        else r
      in
      let bal = Hashtbl.create 16 in
      let bump w (u, v) =
        List.iter
          (fun x ->
            let c = Option.value ~default:0 (Hashtbl.find_opt bal x) in
            Hashtbl.replace bal x (c + w))
          [ u; v ]
      in
      Array.iter (bump 1) added;
      Array.iter (bump (-1)) removed;
      let expect =
        Hashtbl.fold (fun x c acc -> if c <> 0 then x :: acc else acc) bal []
        |> List.sort compare
      in
      let d = Dynet.make_delta ~added ~removed in
      Array.to_list d.Dynet.degree_changed = expect
      && d.Dynet.added == added && d.Dynet.removed == removed)

let test_make_delta_cases () =
  let changed ~added ~removed =
    Array.to_list (Dynet.make_delta ~added ~removed).Dynet.degree_changed
  in
  check (Alcotest.list int) "empty" [] (changed ~added:[||] ~removed:[||]);
  check (Alcotest.list int) "node 1 cancels" [ 0; 2 ]
    (changed ~added:[| (1, 0) |] ~removed:[| (2, 1) |]);
  check (Alcotest.list int) "everything cancels" []
    (changed ~added:[| (3, 4); (4, 5) |] ~removed:[| (5, 4); (4, 3) |]);
  Alcotest.check_raises "negative node"
    (Invalid_argument "Dynet.make_delta: negative node in (-1, 2)") (fun () ->
      ignore (Dynet.make_delta ~added:[||] ~removed:[| (-1, 2) |]))

(* --- the Dynet.delta contract, per shipped family --- *)

let contract_nets () =
  let mk_seq =
    Fixtures.of_sequence [| Gen.cycle 12; Gen.clique 12; Gen.path 12 |]
  in
  let markov = Markovian.network ~n:24 ~p:0.08 ~q:0.15 () in
  let diligent_n =
    let rec find n = if Diligent.admissible ~n ~rho:0.5 then n else find (n + 4) in
    find 16
  in
  let absolute_n =
    let rec find n = if Absolute.admissible ~n ~rho:0.5 then n else find (n + 2) in
    find 12
  in
  [
    ("markovian", markov);
    ("markovian-init", Markovian.network ~n:20 ~p:0.03 ~q:0.06 ~init:(Gen.cycle 20) ());
    ("alternating", Alternating.network ~n:16 ());
    ("alternating-fresh", Alternating.network ~fresh_cubic_each_step:true ~n:16 ());
    ("adversary", Adversary.greedy_min_cut ~n:16 ~degree_budget:4);
    ("dichotomy-g1", Dichotomy.g1 ~n:8);
    ("dichotomy-g2", Dichotomy.g2 ~n:8);
    ("sequence", mk_seq);
    ("intermittent", Combinators.intermittent ~every:3 (Markovian.network ~n:16 ~p:0.1 ~q:0.2 ()));
    ("intermittent-1", Combinators.intermittent ~every:1 (Markovian.network ~n:16 ~p:0.1 ~q:0.2 ()));
    ( "partition",
      Fixtures.with_partition ~from_step:2 ~until_step:6
        ~side:(fun u -> u mod 2 = 0)
        (Markovian.network ~n:16 ~p:0.1 ~q:0.2 ()) );
    ( "interleave",
      Fixtures.interleave
        [ Markovian.network ~n:16 ~p:0.1 ~q:0.2 (); Dynet.of_static (Gen.clique 16) ] );
    ("diligent", Diligent.network ~n:diligent_n ~rho:0.5 ());
    ("absolute", Absolute.network ~n:absolute_n ~rho:0.5);
  ]

let check_delta_contract ?(steps = 24) name (net : Dynet.t) =
  let rng = Rng.create 42 in
  let inst = net.Dynet.spawn (Rng.split rng) in
  let n = net.Dynet.n in
  let informed = Bitset.create n in
  ignore (Bitset.add informed 0);
  let prev = ref None in
  for step = 0 to steps - 1 do
    let info = Dynet.next inst ~informed in
    (match (!prev, info.Dynet.delta) with
    | None, Some _ -> Alcotest.failf "%s: delta at step 0" name
    | Some p, Some d ->
      let patched = Graph.patch p ~add:d.Dynet.added ~remove:d.Dynet.removed in
      if not (Graph.equal patched info.Dynet.graph) then
        Alcotest.failf "%s step %d: patch(prev, delta) <> next" name step;
      let expect = ref [] in
      for v = n - 1 downto 0 do
        if Graph.degree p v <> Graph.degree info.Dynet.graph v then
          expect := v :: !expect
      done;
      if Array.to_list d.Dynet.degree_changed <> !expect then
        Alcotest.failf "%s step %d: degree_changed mismatch" name step
    | _, None -> ());
    (match !prev with
    | Some p when not info.Dynet.changed ->
      if not (Graph.equal p info.Dynet.graph) then
        Alcotest.failf "%s step %d: changed = false but the graph differs"
          name step
    | _ -> ());
    prev := Some info.Dynet.graph;
    (* Grow the informed set so the adaptive families evolve. *)
    ignore (Bitset.add informed (Rng.int rng n))
  done

let test_delta_contract () =
  List.iter (fun (name, net) -> check_delta_contract name net) (contract_nets ())

let test_of_sequence_deltas () =
  let a = Gen.cycle 6 and b = Gen.clique 6 in
  let net = Fixtures.of_sequence [| a; b |] in
  let inst = net.Dynet.spawn (Rng.create 1) in
  let informed = Bitset.create 6 in
  let i0 = Dynet.next inst ~informed in
  let i1 = Dynet.next inst ~informed in
  let i2 = Dynet.next inst ~informed in
  check bool "step 0 no delta" true (i0.Dynet.delta = None);
  (match i1.Dynet.delta with
  | None -> Alcotest.fail "step 1 should carry a delta"
  | Some d ->
    check bool "a + delta = b" true
      (Graph.equal (Graph.patch a ~add:d.Dynet.added ~remove:d.Dynet.removed) b));
  (match i2.Dynet.delta with
  | None -> Alcotest.fail "step 2 should carry a delta"
  | Some d ->
    check bool "b + delta = a" true
      (Graph.equal (Graph.patch b ~add:d.Dynet.added ~remove:d.Dynet.removed) a));
  (* A constant sequence reports unchanged (and delta-free) repeats. *)
  let net = Fixtures.of_sequence [| a; a |] in
  let inst = net.Dynet.spawn (Rng.create 1) in
  ignore (Dynet.next inst ~informed);
  let i1 = Dynet.next inst ~informed in
  check bool "constant repeat unchanged" false i1.Dynet.changed;
  check bool "constant repeat delta-free" true (i1.Dynet.delta = None)

(* --- the Markovian sparse sampler --- *)

let graphs_of net seed steps =
  let inst = net.Dynet.spawn (Rng.create seed) in
  let informed = Bitset.create net.Dynet.n in
  Array.init steps (fun _ -> (Dynet.next inst ~informed).Dynet.graph)

let test_markovian_extremes () =
  (* Frozen chain: p = q = 0 never changes. *)
  let gs = graphs_of (Markovian.network ~n:10 ~p:0. ~q:0. ~init:(Gen.cycle 10) ()) 3 5 in
  Array.iter (fun g -> check bool "frozen" true (Graph.equal g (Gen.cycle 10))) gs;
  (* q = 1 kills every present edge in one step. *)
  let gs = graphs_of (Markovian.network ~n:8 ~p:0. ~q:1. ~init:(Gen.clique 8) ()) 3 2 in
  check int "all edges die" 0 (Graph.m gs.(1));
  (* p = 1 fills every absent pair in one step. *)
  let gs = graphs_of (Markovian.network ~n:8 ~p:1. ~q:0. ()) 3 2 in
  check int "all edges born" (8 * 7 / 2) (Graph.m gs.(1));
  (* p = q = 1 alternates complete and empty. *)
  let gs = graphs_of (Markovian.network ~n:6 ~p:1. ~q:1. ()) 3 4 in
  check int "empty" 0 (Graph.m gs.(0));
  check int "complete" (6 * 5 / 2) (Graph.m gs.(1));
  check int "empty again" 0 (Graph.m gs.(2));
  check int "complete again" (6 * 5 / 2) (Graph.m gs.(3))

let test_markovian_deterministic () =
  let net = Markovian.network ~n:20 ~p:0.1 ~q:0.2 () in
  let a = graphs_of net 5 10 and b = graphs_of net 5 10 in
  Array.iteri
    (fun i g -> check bool "same seed, same chain" true (Graph.equal g b.(i)))
    a

let test_markovian_density_cross_check () =
  (* Sparse and dense samplers are distinct implementations of the same
     chain: both must sit at the stationary density. *)
  let n = 24 and p = 0.05 and q = 0.15 in
  let density net seed =
    let inst = net.Dynet.spawn (Rng.create seed) in
    let informed = Bitset.create n in
    let total = ref 0 in
    for step = 0 to 299 do
      let info = Dynet.next inst ~informed in
      if step >= 200 then total := !total + Graph.m info.Dynet.graph
    done;
    float_of_int !total /. 100. /. float_of_int (n * (n - 1) / 2)
  in
  let target = Markovian.stationary_edge_probability ~p ~q in
  let ds = density (Markovian.network ~n ~p ~q ()) 9 in
  let dd = density (Oracle.markovian_dense ~n ~p ~q) 9 in
  check bool "sparse near stationary" true (Float.abs (ds -. target) < 0.08);
  check bool "dense near stationary" true (Float.abs (dd -. target) < 0.08)

(* --- allocation of the churn step --- *)

(* Minor words per flipped edge of [Dynet.next] on the sweep-churn
   network (n = 1024, p = 4/n, q = 0.5, started at its stationary
   density; about 4 050 flips per step).  The tuple-Hashtbl patch and
   the polymorphic-Hashtbl delta it replaced, with boxed int64 random
   state, allocated 68.4 words per flip in the dev profile; the bound
   is half of that.  The step now takes about 9: the born pairs and
   boxed floats.  Its arrays of more than 256 words go straight to the
   major heap and are not counted. *)
let max_words_per_flip = 34.

let test_churn_alloc () =
  let n = 1024 in
  let p = 4. /. float_of_int n and q = 0.5 in
  let init =
    Gen.erdos_renyi (Rng.create 5) n (Markovian.stationary_edge_probability ~p ~q)
  in
  let inst = (Markovian.network ~n ~p ~q ~init ()).Dynet.spawn (Rng.create 9) in
  let informed = Bitset.create n in
  for _ = 1 to 5 do
    ignore (Dynet.next inst ~informed)
  done;
  let flips = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 40 do
    match (Dynet.next inst ~informed).Dynet.delta with
    | Some d -> flips := !flips + Dynet.delta_size d
    | None -> ()
  done;
  let words = Gc.minor_words () -. before in
  check bool "the chain churns" true (!flips > 40 * 1000);
  let w = words /. float_of_int !flips in
  if w > max_words_per_flip then
    Alcotest.failf "%.1f minor words per flipped edge (bound %.0f)" w
      max_words_per_flip

(* --- differential: delta path vs rebuild path --- *)

let diff_nets () =
  let diligent_n =
    let rec find n = if Diligent.admissible ~n ~rho:0.5 then n else find (n + 4) in
    find 16
  in
  [
    ("markovian", Markovian.network ~n:32 ~p:0.08 ~q:0.15 (), 0);
    ("markovian-init", Markovian.network ~n:24 ~p:0.02 ~q:0.05 ~init:(Gen.cycle 24) (), 0);
    ("alternating", Alternating.network ~n:16 (), 0);
    ("adversary", Adversary.greedy_min_cut ~n:16 ~degree_budget:4, 0);
    ("dichotomy-g1", Dichotomy.g1 ~n:8, 8);
    ("dichotomy-g2", Dichotomy.g2 ~n:8, 0);
    ("sequence", Fixtures.of_sequence [| Gen.cycle 12; Gen.clique 12; Gen.path 12 |], 0);
    ("intermittent", Combinators.intermittent ~every:3 (Markovian.network ~n:16 ~p:0.1 ~q:0.2 ()), 0);
    ( "partition",
      Fixtures.with_partition ~from_step:2 ~until_step:6
        ~side:(fun u -> u mod 2 = 0)
        (Markovian.network ~n:16 ~p:0.1 ~q:0.2 ()),
      0 );
    ("diligent", Diligent.network ~n:diligent_n ~rho:0.5 (), 0);
  ]

let same_result name (r1 : Async_result.t) (r2 : Async_result.t) =
  check bool (name ^ ": complete") r1.Async_result.complete r2.Async_result.complete;
  check int (name ^ ": events") r1.Async_result.events r2.Async_result.events;
  check int (name ^ ": steps") r1.Async_result.steps r2.Async_result.steps;
  check int (name ^ ": lost") r1.Async_result.lost r2.Async_result.lost;
  check bool (name ^ ": informed sets") true
    (Bitset.to_list r1.Async_result.informed = Bitset.to_list r2.Async_result.informed);
  close (name ^ ": final time") r1.Async_result.time r2.Async_result.time;
  Array.iteri
    (fun v t1 -> close (Printf.sprintf "%s: time of %d" name v) t1 r2.Async_result.informed_times.(v))
    r1.Async_result.informed_times

let test_differential_runs () =
  List.iter
    (fun (name, net, source) ->
      List.iter
        (fun protocol ->
          List.iter
            (fun seed ->
              let r1 =
                Async_cut.run ~protocol ~horizon:400. ~max_events:200_000
                  (Rng.create seed) net ~source
              in
              let r2 =
                Async_cut.run ~protocol ~use_deltas:false ~horizon:400.
                  ~max_events:200_000 (Rng.create seed) net ~source
              in
              same_result (Printf.sprintf "%s/%s/seed%d" name (Protocol.to_string protocol) seed) r1 r2)
            [ 11; 12 ])
        [ Protocol.Push_pull; Protocol.Push; Protocol.Pull ])
    (diff_nets ())

let test_engine_state_parity () =
  (* Lockstep event-by-event comparison, including the Fenwick weight
     state after every event. *)
  let net = Markovian.network ~n:32 ~p:0.08 ~q:0.15 () in
  let e1 = Async_cut.create (Rng.create 7) net ~source:0 in
  let e2 = Async_cut.create ~use_deltas:false (Rng.create 7) net ~source:0 in
  let guard = ref 0 in
  let finished = ref false in
  while (not !finished) && !guard < 5_000 do
    incr guard;
    let ev1 = Async_cut.next_event e1 and ev2 = Async_cut.next_event e2 in
    (match (ev1, ev2) with
    | Async_cut.Informed (v1, t1), Async_cut.Informed (v2, t2) ->
      check int "same informed node" v1 v2;
      close "same informing time" t1 t2
    | Async_cut.Step_boundary (s1, c1), Async_cut.Step_boundary (s2, c2) ->
      check int "same step" s1 s2;
      check bool "same changed flag" c1 c2
    | Async_cut.Complete t1, Async_cut.Complete t2 ->
      close "same completion time" t1 t2;
      finished := true
    | _ -> Alcotest.fail "event kind mismatch between delta and rebuild paths");
    check bool "same graph" true
      (Graph.equal (Async_cut.current_graph e1) (Async_cut.current_graph e2));
    close "same total rate" (Async_cut.total_cut_rate e1) (Async_cut.total_cut_rate e2);
    for v = 0 to 31 do
      close
        (Printf.sprintf "weight of %d" v)
        (Async_cut.cut_weight e1 v) (Async_cut.cut_weight e2 v)
    done
  done;
  check bool "run completed" true !finished

let test_periodic_rebuild_parity () =
  (* Canonicalising every inform versus (effectively) never must not
     change any outcome, and the measured drift must be tiny. *)
  let net = Markovian.network ~n:48 ~p:0.05 ~q:0.1 () in
  let r1 =
    Async_cut.run ~rebuild_every:1 ~horizon:400. (Rng.create 3) net ~source:0
  in
  let r2 = Async_cut.run ~horizon:400. (Rng.create 3) net ~source:0 in
  same_result "rebuild-every-1 vs default" r1 r2;
  let e = Async_cut.create ~rebuild_every:4 (Rng.create 3) net ~source:0 in
  let guard = ref 0 in
  while Async_cut.informed_count e < 48 && !guard < 50_000 do
    incr guard;
    ignore (Async_cut.next_event e)
  done;
  check bool "drift measured below 1e-6" true (Async_cut.max_weight_drift e < 1e-6)

(* --- Gray-code enumeration vs the naive reference --- *)

let naive_conductance g =
  let n = Graph.n g in
  let edges = Graph.edges g in
  let degrees = Array.init n (Graph.degree g) in
  let vol_g = Graph.volume g in
  if not (Traverse.is_connected g) then 0.
  else begin
    let best = ref infinity in
    for mask = 1 to (1 lsl n) - 2 do
      let vol_s = ref 0 in
      for u = 0 to n - 1 do
        if mask land (1 lsl u) <> 0 then vol_s := !vol_s + degrees.(u)
      done;
      if !vol_s > 0 && !vol_s < vol_g then begin
        let cut = ref 0 in
        Array.iter
          (fun (u, v) ->
            if mask land (1 lsl u) <> 0 <> (mask land (1 lsl v) <> 0) then
              incr cut)
          edges;
        let phi =
          float_of_int !cut /. float_of_int (min !vol_s (vol_g - !vol_s))
        in
        if phi < !best then best := phi
      end
    done;
    !best
  end

let naive_diligence g =
  let n = Graph.n g in
  let edges = Graph.edges g in
  let degrees = Array.init n (Graph.degree g) in
  let vol_g = Graph.volume g in
  if not (Traverse.is_connected g) then 0.
  else begin
    let popcount mask =
      let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
      go mask 0
    in
    let best = ref infinity in
    for mask = 1 to (1 lsl n) - 2 do
      let vol_s = ref 0 in
      for u = 0 to n - 1 do
        if mask land (1 lsl u) <> 0 then vol_s := !vol_s + degrees.(u)
      done;
      if !vol_s > 0 && 2 * !vol_s <= vol_g then begin
        let dbar = float_of_int !vol_s /. float_of_int (popcount mask) in
        let rho_s = ref infinity in
        Array.iter
          (fun (u, v) ->
            if mask land (1 lsl u) <> 0 <> (mask land (1 lsl v) <> 0) then begin
              let du = float_of_int degrees.(u)
              and dv = float_of_int degrees.(v) in
              let m = Float.max (dbar /. du) (dbar /. dv) in
              if m < !rho_s then rho_s := m
            end)
          edges;
        if !rho_s < !best then best := !rho_s
      end
    done;
    !best
  end

let test_gray_code_matches_naive () =
  let graphs =
    [ Gen.cycle 8; Gen.clique 6; Gen.star 7; Gen.barbell 8; Gen.path 6 ]
    @ List.filter_map
        (fun seed ->
          let g = Gen.erdos_renyi (Rng.create seed) 9 0.45 in
          if Traverse.is_connected g then Some g else None)
        [ 1; 2; 3; 4; 5 ]
  in
  List.iter
    (fun g ->
      (* Integer-exact incremental maintenance: results are bit-identical
         to the naive rescan. *)
      check (Alcotest.float 0.) "conductance" (naive_conductance g)
        (Cut.conductance_exact g);
      check (Alcotest.float 0.) "diligence" (naive_diligence g)
        (Cut.diligence_exact g))
    graphs

let () =
  Alcotest.run "delta"
    [
      ( "graph-patch",
        [
          Alcotest.test_case "basic" `Quick test_patch_basic;
          Alcotest.test_case "rejects" `Quick test_patch_rejects;
          Alcotest.test_case "diff round-trip" `Quick test_diff_roundtrip;
          QCheck_alcotest.to_alcotest prop_patch_matches_oracle;
          Alcotest.test_case "make_delta cases" `Quick test_make_delta_cases;
          QCheck_alcotest.to_alcotest prop_make_delta_matches_oracle;
        ] );
      ( "dynet-contract",
        [
          Alcotest.test_case "all families" `Quick test_delta_contract;
          Alcotest.test_case "of_sequence precomputed" `Quick test_of_sequence_deltas;
        ] );
      ( "markovian-sparse",
        [
          Alcotest.test_case "extremes" `Quick test_markovian_extremes;
          Alcotest.test_case "deterministic" `Quick test_markovian_deterministic;
          Alcotest.test_case "density vs dense" `Quick test_markovian_density_cross_check;
          Alcotest.test_case "churn step allocation" `Quick test_churn_alloc;
        ] );
      ( "differential",
        [
          Alcotest.test_case "run outcomes" `Quick test_differential_runs;
          Alcotest.test_case "engine state lockstep" `Quick test_engine_state_parity;
          Alcotest.test_case "periodic rebuild parity" `Quick test_periodic_rebuild_parity;
        ] );
      ( "gray-code",
        [ Alcotest.test_case "matches naive" `Quick test_gray_code_matches_naive ] );
    ]
