type t = {
  n : int;
  neigh : (int, unit) Hashtbl.t array; (* adjacency sets *)
}

let create n =
  if n < 0 then invalid_arg "Builder.create: negative node count";
  { n; neigh = Array.init (max 1 n) (fun _ -> Hashtbl.create 4) }

let check b u =
  if u < 0 || u >= b.n then
    invalid_arg (Printf.sprintf "Builder: node %d out of range [0, %d)" u b.n)

let degree b u =
  check b u;
  Hashtbl.length b.neigh.(u)

let has_edge b u v =
  check b u;
  check b v;
  Hashtbl.mem b.neigh.(u) v

let add_edge b u v =
  check b u;
  check b v;
  if u = v then invalid_arg (Printf.sprintf "Builder.add_edge: self-loop at %d" u);
  if Hashtbl.mem b.neigh.(u) v then false
  else begin
    Hashtbl.replace b.neigh.(u) v ();
    Hashtbl.replace b.neigh.(v) u ();
    true
  end

let add_edge_exn b u v =
  if not (add_edge b u v) then
    invalid_arg (Printf.sprintf "Builder.add_edge_exn: duplicate edge (%d, %d)" u v)

let remove_edge b u v =
  check b u;
  check b v;
  if Hashtbl.mem b.neigh.(u) v then begin
    Hashtbl.remove b.neigh.(u) v;
    Hashtbl.remove b.neigh.(v) u;
    true
  end
  else false

let add_clique b nodes =
  let k = Array.length nodes in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      ignore (add_edge b nodes.(i) nodes.(j))
    done
  done

let add_complete_bipartite b left right =
  Array.iter
    (fun u ->
      Array.iter
        (fun v ->
          if u = v then
            invalid_arg "Builder.add_complete_bipartite: sides intersect";
          ignore (add_edge b u v))
        right)
    left

let freeze b =
  let adj =
    Array.init b.n (fun u ->
        let a = Array.make (Hashtbl.length b.neigh.(u)) 0 in
        let k = ref 0 in
        Hashtbl.iter
          (fun v () ->
            a.(!k) <- v;
            incr k)
          b.neigh.(u);
        Array.sort compare a;
        a)
  in
  Graph.unsafe_make ~n:b.n ~adj
