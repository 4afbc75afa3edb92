open Rumor_util
open Rumor_rng

type delta = {
  added : (int * int) array;
  removed : (int * int) array;
  degree_changed : int array;
}

type info = {
  graph : Rumor_graph.Graph.t;
  changed : bool;
  delta : delta option;
  phi : float option;
  rho : float option;
  rho_abs : float option;
}

let delta_size d = Array.length d.added + Array.length d.removed

(* Net per-node degree balance of the edge delta, in an int array
   indexed by node; a node whose additions and removals cancel keeps its
   degree and is excluded.  Scanning the array emits [degree_changed]
   ascending without a sort: O(max node id + delta), the same order as
   the [Graph.patch] that produced the delta. *)
let make_delta ~added ~removed =
  let top = ref (-1) in
  let span (u, v) =
    if u < 0 || v < 0 then
      invalid_arg (Printf.sprintf "Dynet.make_delta: negative node in (%d, %d)" u v);
    top := Int.max !top (Int.max u v)
  in
  Array.iter span added;
  Array.iter span removed;
  let bal = Array.make (!top + 1) 0 in
  Array.iter
    (fun (u, v) ->
      bal.(u) <- bal.(u) + 1;
      bal.(v) <- bal.(v) + 1)
    added;
  Array.iter
    (fun (u, v) ->
      bal.(u) <- bal.(u) - 1;
      bal.(v) <- bal.(v) - 1)
    removed;
  let count = ref 0 in
  Array.iter (fun c -> if c <> 0 then incr count) bal;
  let degree_changed = Array.make !count 0 in
  let k = ref 0 in
  Array.iteri
    (fun x c ->
      if c <> 0 then begin
        degree_changed.(!k) <- x;
        incr k
      end)
    bal;
  { added; removed; degree_changed }

let delta_of_graphs ?max_edges prev next =
  let added, removed = Rumor_graph.Graph.diff prev next in
  match max_edges with
  | Some cap when Array.length added + Array.length removed > cap -> None
  | _ -> Some (make_delta ~added ~removed)

type instance = {
  mutable steps : int;
  fn : step:int -> informed:Bitset.t -> info;
}

let make_instance fn = { steps = 0; fn }

let next inst ~informed =
  let step = inst.steps in
  inst.steps <- step + 1;
  let info = inst.fn ~step ~informed in
  if step = 0 && not info.changed then
    invalid_arg "Dynet.next: step 0 must report changed = true";
  info

type t = {
  n : int;
  name : string;
  source_hint : int option;
  spawn : Rng.t -> instance;
}

let info_of_graph ?(changed = true) ?delta ?phi ?rho ?rho_abs graph =
  { graph; changed; delta; phi; rho; rho_abs }

let of_static ?name ?phi ?rho ?rho_abs graph =
  let name =
    match name with
    | Some s -> s
    | None -> Printf.sprintf "static-n%d" (Rumor_graph.Graph.n graph)
  in
  {
    n = Rumor_graph.Graph.n graph;
    name;
    source_hint = None;
    spawn =
      (fun _rng ->
        make_instance (fun ~step ~informed:_ ->
            { graph; changed = step = 0; delta = None; phi; rho; rho_abs }));
  }
