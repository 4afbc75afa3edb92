open Rumor_rng

let empty n = Builder.freeze (Builder.create n)

let clique n =
  let b = Builder.create n in
  Builder.add_clique b (Array.init n (fun i -> i));
  Builder.freeze b

let star n =
  if n < 1 then invalid_arg "Gen.star: need n >= 1";
  let b = Builder.create n in
  for leaf = 1 to n - 1 do
    Builder.add_edge_exn b 0 leaf
  done;
  Builder.freeze b

let path n =
  let b = Builder.create n in
  for i = 0 to n - 2 do
    Builder.add_edge_exn b i (i + 1)
  done;
  Builder.freeze b

let cycle n =
  if n < 3 then invalid_arg "Gen.cycle: need n >= 3";
  let b = Builder.create n in
  for i = 0 to n - 1 do
    ignore (Builder.add_edge b i ((i + 1) mod n))
  done;
  Builder.freeze b

let circulant n strides =
  if n < 1 then invalid_arg "Gen.circulant: need n >= 1";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if s < 1 || 2 * s > n then
        invalid_arg (Printf.sprintf "Gen.circulant: stride %d out of (0, n/2]" s);
      if Hashtbl.mem seen s then
        invalid_arg (Printf.sprintf "Gen.circulant: repeated stride %d" s);
      Hashtbl.add seen s ())
    strides;
  let b = Builder.create n in
  List.iter
    (fun s ->
      for i = 0 to n - 1 do
        ignore (Builder.add_edge b i ((i + s) mod n))
      done)
    strides;
  Builder.freeze b

let hypercube d =
  if d < 0 then invalid_arg "Gen.hypercube: negative dimension";
  let n = 1 lsl d in
  let b = Builder.create n in
  for u = 0 to n - 1 do
    for bit = 0 to d - 1 do
      let v = u lxor (1 lsl bit) in
      if u < v then Builder.add_edge_exn b u v
    done
  done;
  Builder.freeze b

let barbell n =
  if n < 1 then invalid_arg "Gen.barbell: need n >= 1";
  let b = Builder.create (2 * n) in
  Builder.add_clique b (Array.init n (fun i -> i));
  Builder.add_clique b (Array.init n (fun i -> n + i));
  Builder.add_edge_exn b (n - 1) n;
  Builder.freeze b

let clique_with_pendant n =
  if n < 1 then invalid_arg "Gen.clique_with_pendant: need n >= 1";
  let b = Builder.create (n + 1) in
  Builder.add_clique b (Array.init n (fun i -> i));
  Builder.add_edge_exn b 0 n;
  Builder.freeze b

let two_cliques_bridged n =
  if n < 1 then invalid_arg "Gen.two_cliques_bridged: need n >= 1";
  let total = n + 1 in
  let left_size = (total + 1) / 2 in
  let b = Builder.create total in
  Builder.add_clique b (Array.init left_size (fun i -> i));
  Builder.add_clique b (Array.init (total - left_size) (fun i -> left_size + i));
  (* Bridge between node 0 (left) and node n (right); if n fell in the
     left half (tiny graphs) use the first right node instead. *)
  let right_rep = if n >= left_size then n else left_size in
  ignore (Builder.add_edge b 0 right_rep);
  Builder.freeze b

let erdos_renyi rng n p =
  if n < 0 then invalid_arg "Gen.erdos_renyi: negative n";
  if p < 0. || p > 1. then invalid_arg "Gen.erdos_renyi: p outside [0, 1]";
  let b = Builder.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Rng.bernoulli rng p then Builder.add_edge_exn b u v
    done
  done;
  Builder.freeze b

(* Steger-Wormald sequential stub matching: repeatedly pair two random
   remaining stubs, rejecting only the offending pair on a self-loop or
   parallel edge (not the whole graph, whose acceptance probability
   e^{-(d^2-1)/4} is hopeless already at d ~ 6).  Restart only when the
   tail of the pairing gets stuck; asymptotically the distribution is
   uniform for d = O(n^{1/3}). *)
let random_regular rng n d =
  if d < 0 then invalid_arg "Gen.random_regular: negative degree";
  if d >= n && not (n = 0 && d = 0) then
    invalid_arg "Gen.random_regular: need d < n";
  if n * d mod 2 = 1 then invalid_arg "Gen.random_regular: n * d must be even";
  if d = 0 then empty n
  else begin
    let total = n * d in
    let stubs = Array.make total 0 in
    let attempt () =
      for i = 0 to total - 1 do
        stubs.(i) <- i / d
      done;
      let b = Builder.create n in
      let remaining = ref total in
      let stuck = ref 0 in
      let take idx =
        let v = stubs.(idx) in
        stubs.(idx) <- stubs.(!remaining - 1);
        decr remaining;
        v
      in
      while !remaining > 0 && !stuck < 2000 do
        let i = Rng.int rng !remaining in
        let j = Rng.int rng !remaining in
        if i <> j then begin
          let u = stubs.(i) and v = stubs.(j) in
          if u <> v && not (Builder.has_edge b u v) then begin
            (* Remove the higher index first so the lower stays valid. *)
            let hi = max i j and lo = min i j in
            ignore (take hi);
            ignore (take lo);
            ignore (Builder.add_edge b u v);
            stuck := 0
          end
          else incr stuck
        end
        else incr stuck
      done;
      if !remaining = 0 then Some (Builder.freeze b) else None
    in
    let rec retry k =
      if k > 1_000 then
        failwith "Gen.random_regular: too many restarts (degenerate parameters)"
      else
        match attempt () with Some g -> g | None -> retry (k + 1)
    in
    retry 0
  end

let random_connected_regular rng n d =
  if d < 1 then invalid_arg "Gen.random_connected_regular: need d >= 1";
  let rec retry k =
    if k > 1_000 then
      failwith "Gen.random_connected_regular: too many disconnected draws"
    else
      let g = random_regular rng n d in
      if Traverse.is_connected g then g else retry (k + 1)
  in
  retry 0

let watts_strogatz rng n k beta =
  if k < 1 || 2 * k > n - 1 then
    invalid_arg "Gen.watts_strogatz: need 1 <= k <= (n-1)/2";
  if beta < 0. || beta > 1. then
    invalid_arg "Gen.watts_strogatz: beta outside [0, 1]";
  let b = Builder.create n in
  (* Ring lattice. *)
  for i = 0 to n - 1 do
    for s = 1 to k do
      ignore (Builder.add_edge b i ((i + s) mod n))
    done
  done;
  (* Rewire each original lattice edge (i, i+s) with probability beta:
     keep endpoint i, move the other end to a uniform non-neighbour. *)
  for i = 0 to n - 1 do
    for s = 1 to k do
      if Rng.bernoulli rng beta then begin
        let j = (i + s) mod n in
        if Builder.degree b i < n - 1 && Builder.remove_edge b i j then begin
          let rec attach guard =
            if guard = 0 then Builder.add_edge_exn b i j
            else
              let t = Rng.int rng n in
              if t <> i && Builder.add_edge b i t then () else attach (guard - 1)
          in
          attach 64
        end
      end
    done
  done;
  Builder.freeze b

let barabasi_albert rng n m =
  if m < 1 || m >= n then invalid_arg "Gen.barabasi_albert: need 1 <= m < n";
  let b = Builder.create n in
  (* Seed clique on m+1 nodes. *)
  Builder.add_clique b (Array.init (m + 1) (fun i -> i));
  (* Degree-proportional sampling via the standard endpoint-list
     trick: every edge contributes both endpoints. *)
  let endpoints = ref [] in
  let push_endpoints u v = endpoints := u :: v :: !endpoints in
  for u = 0 to m do
    for v = u + 1 to m do
      push_endpoints u v
    done
  done;
  let endpoint_arr = ref (Array.of_list !endpoints) in
  let endpoint_len = ref (Array.length !endpoint_arr) in
  let grow_endpoint x =
    if !endpoint_len = Array.length !endpoint_arr then begin
      let bigger = Array.make (max 16 (2 * !endpoint_len)) 0 in
      Array.blit !endpoint_arr 0 bigger 0 !endpoint_len;
      endpoint_arr := bigger
    end;
    !endpoint_arr.(!endpoint_len) <- x;
    incr endpoint_len
  in
  for v = m + 1 to n - 1 do
    let chosen = Hashtbl.create m in
    let guard = ref (1000 * m) in
    while Hashtbl.length chosen < m && !guard > 0 do
      decr guard;
      let u = !endpoint_arr.(Rng.int rng !endpoint_len) in
      if u <> v && not (Hashtbl.mem chosen u) then Hashtbl.add chosen u ()
    done;
    (* Degenerate fallback: fill with smallest unused ids. *)
    let fill = ref 0 in
    while Hashtbl.length chosen < m do
      if !fill <> v && not (Hashtbl.mem chosen !fill) then
        Hashtbl.add chosen !fill ();
      incr fill
    done;
    Hashtbl.iter
      (fun u () ->
        Builder.add_edge_exn b u v;
        grow_endpoint u;
        grow_endpoint v)
      chosen
  done;
  Builder.freeze b
