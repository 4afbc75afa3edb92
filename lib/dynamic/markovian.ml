open Rumor_rng
open Rumor_graph

let stationary_edge_probability ~p ~q =
  if p +. q <= 0. then invalid_arg "Markovian: p + q must be positive";
  p /. (p +. q)

let validate ~n ~p ~q ~init =
  if p < 0. || p > 1. || q < 0. || q > 1. then
    invalid_arg "Markovian.network: p, q must lie in [0, 1]";
  (match init with
  | Some g when Graph.n g <> n ->
    invalid_arg "Markovian.network: init node-count mismatch"
  | _ -> ());
  match init with Some g -> g | None -> Gen.empty n

(* Geometric skipping: number of consecutive failures before the next
   success of a Bernoulli(prob) scan, i.e. floor(log U / log(1 - prob))
   for U uniform on (0, 1].  Visiting only the successes makes a step
   cost O(#flips) in expectation instead of O(n^2).  [log1m] is
   [log1p (-. prob)], computed once per network. *)
let skip rng ~prob ~log1m =
  if prob >= 1. then 0
  else begin
    let s = Float.log (Rng.float_pos rng) /. log1m in
    if Float.is_finite s && s < 1e18 then int_of_float s else max_int / 2
  end

(* Decode the k-th pair (u, v), u < v, of the lexicographic enumeration
   of the C(n,2) node pairs.  Counting r = total - 1 - k pairs from the
   end turns the row offsets into plain triangular numbers:
   row u = n-2-i holds the r in [i(i+1)/2, (i+1)(i+2)/2). *)
let decode_pair ~n ~total k =
  let r = total - 1 - k in
  let i =
    let guess =
      int_of_float ((Float.sqrt ((8. *. float_of_int r) +. 1.) -. 1.) /. 2.)
    in
    let i = ref (max 0 guess) in
    while (!i + 1) * (!i + 2) / 2 <= r do
      incr i
    done;
    while !i * (!i + 1) / 2 > r do
      decr i
    done;
    !i
  in
  let u = n - 2 - i in
  let v = n - 1 - (r - (i * (i + 1) / 2)) in
  (u, v)

let network ~n ~p ~q ?init () =
  let init = validate ~n ~p ~q ~init in
  let total = n * (n - 1) / 2 in
  let log1m_p = Float.log1p (-.p) and log1m_q = Float.log1p (-.q) in
  {
    Dynet.n;
    name = Printf.sprintf "edge-markovian(n=%d,p=%.3g,q=%.3g)" n p q;
    source_hint = None;
    spawn =
      (fun rng ->
        let current = ref init in
        (* Present-edge pool as a growable array: deaths are sampled by
           index over it, then swap-removed from the top down. *)
        let pool = ref (Array.append (Graph.edges init) (Array.make 16 (0, 0))) in
        let count = ref (Array.length (Graph.edges init)) in
        let push e =
          if !count = Array.length !pool then
            pool := Array.append !pool (Array.make (max 16 !count) (0, 0));
          !pool.(!count) <- e;
          incr count
        in
        (* Per-step scratch, grown on demand: the dying pool indices and
           the born pairs, both in sampling order. *)
        let dying = ref (Array.make 16 0) in
        let born = ref (Array.make 16 (0, 0)) in
        let grow a fill = Array.append a (Array.make (Array.length a) fill) in
        Dynet.make_instance (fun ~step ~informed:_ ->
            if step = 0 then Dynet.info_of_graph ~changed:true init
            else begin
              let prev = !current in
              (* Deaths: each present edge dies with probability q.
                 Indices are collected in increasing order, so
                 swap-removal from the last one down never disturbs a
                 later victim. *)
              let nd = ref 0 in
              if q > 0. && !count > 0 then begin
                let idx = ref (skip rng ~prob:q ~log1m:log1m_q) in
                while !idx < !count do
                  if !nd = Array.length !dying then dying := grow !dying 0;
                  !dying.(!nd) <- !idx;
                  incr nd;
                  idx := !idx + 1 + skip rng ~prob:q ~log1m:log1m_q
                done
              end;
              let removed = Array.init !nd (fun i -> !pool.(!dying.(i))) in
              for i = !nd - 1 downto 0 do
                decr count;
                !pool.(!dying.(i)) <- !pool.(!count)
              done;
              (* Births: scan the virtual pair space; a hit on a pair
                 already present at the start of the step is discarded
                 (only absent edges run a birth trial), which costs an
                 expected extra p * m draws and keeps the chain exact. *)
              let nb = ref 0 in
              if p > 0. && total > 0 then begin
                let k = ref (skip rng ~prob:p ~log1m:log1m_p) in
                while !k < total do
                  let ((u, v) as e) = decode_pair ~n ~total !k in
                  if not (Graph.has_edge prev u v) then begin
                    if !nb = Array.length !born then born := grow !born (0, 0);
                    !born.(!nb) <- e;
                    incr nb
                  end;
                  k := !k + 1 + skip rng ~prob:p ~log1m:log1m_p
                done
              end;
              let added = Array.sub !born 0 !nb in
              Array.iter push added;
              if Array.length added = 0 && Array.length removed = 0 then
                Dynet.info_of_graph ~changed:false prev
              else begin
                let g = Graph.patch prev ~add:added ~remove:removed in
                current := g;
                Dynet.info_of_graph ~changed:true
                  ~delta:(Dynet.make_delta ~added ~removed)
                  g
              end
            end));
  }
