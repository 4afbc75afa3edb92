open Rumor_rng

type outcome = {
  reached_last : bool;
  informed_last : int;
  informed_total : int;
}

let validate clusters =
  let kk = Array.length clusters in
  if kk < 2 then invalid_arg "Coupling: need at least 2 clusters";
  let delta = Array.length clusters.(0) in
  Array.iter
    (fun c ->
      if Array.length c <> delta then
        invalid_arg "Coupling: ragged cluster sizes")
    clusters;
  if delta = 0 then invalid_arg "Coupling: empty clusters";
  delta

(* Common tick-driven simulation over the string.  [targets ci] gives
   the clusters an informed node of cluster [ci] may push into. *)
let simulate rng clusters ~horizon ~targets =
  let delta = validate clusters in
  let kk = Array.length clusters in
  let n_string = kk * delta in
  (* informed.(ci).(ii) per cluster slot. *)
  let informed = Array.map (fun c -> Array.map (fun _ -> false) c) clusters in
  Array.iteri (fun ii _ -> informed.(0).(ii) <- true) clusters.(0);
  let informed_count = ref delta in
  let tau = ref 0. in
  let total_rate = 2. *. float_of_int n_string in
  let finished = ref false in
  while not !finished do
    tau := !tau +. (-.log (Rng.float_pos rng) /. total_rate);
    if !tau >= horizon then finished := true
    else begin
      (* Uniform string node ticks. *)
      let idx = Rng.int rng n_string in
      let ci = idx / delta and ii = idx mod delta in
      if informed.(ci).(ii) then begin
        match targets ci with
        | [] -> ()
        | choices ->
          (* Uniform neighbour across the allowed clusters (complete
             bipartite wiring: every slot of each allowed cluster). *)
          let pick = Rng.int rng (List.length choices * delta) in
          let target_cluster = List.nth choices (pick / delta) in
          let target_slot = pick mod delta in
          if not informed.(target_cluster).(target_slot) then begin
            informed.(target_cluster).(target_slot) <- true;
            incr informed_count
          end
      end
    end
  done;
  let informed_last =
    Array.fold_left
      (fun acc b -> if b then acc + 1 else acc)
      0
      informed.(kk - 1)
  in
  {
    reached_last = informed_last > 0;
    informed_last;
    informed_total = !informed_count;
  }

let two_push rng ~clusters ~horizon =
  let kk = Array.length clusters in
  let targets ci =
    (if ci > 0 then [ ci - 1 ] else []) @ if ci < kk - 1 then [ ci + 1 ] else []
  in
  simulate rng clusters ~horizon ~targets

let forward_two_push rng ~clusters ~horizon =
  let kk = Array.length clusters in
  let targets ci = if ci < kk - 1 then [ ci + 1 ] else [] in
  simulate rng clusters ~horizon ~targets

let factorial_bound ~k ~delta =
  let rec fact i acc = if i <= 1 then acc else fact (i - 1) (acc *. float_of_int i) in
  2. ** float_of_int k /. fact k 1. *. float_of_int delta
