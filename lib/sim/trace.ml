type t = (float * int) array

let time_to_count tr target =
  let found = ref None in
  Array.iter
    (fun (time, count) ->
      if !found = None && count >= target then found := Some time)
    tr;
  !found

(* Informed-count deltas bucketed by dynamic step: entry [s] is the
   number of nodes informed during [[s, s+1)).  The initial trajectory
   point (the source) is a baseline, not progress.  An event landing
   exactly on an integer boundary time [t = s] belongs to step [s] —
   consistent with the engines, which expose graph G(s) from time [s]
   onwards. *)
let per_step_progress tr =
  if Array.length tr = 0 then [||]
  else begin
    let last_time, _ = tr.(Array.length tr - 1) in
    let steps = int_of_float (Float.floor last_time) + 1 in
    let deltas = Array.make steps 0 in
    for i = 1 to Array.length tr - 1 do
      let t1, c1 = tr.(i) and _, c0 = tr.(i - 1) in
      let s = min (steps - 1) (int_of_float (Float.floor t1)) in
      deltas.(s) <- deltas.(s) + (c1 - c0)
    done;
    deltas
  end

let time_to_fraction tr ~n frac =
  if frac <= 0. || frac > 1. then
    invalid_arg "Trace.time_to_fraction: frac outside (0, 1]";
  time_to_count tr (int_of_float (Float.ceil (frac *. float_of_int n)))

(* Phase schedule from the proof of Theorem 1.1: while I <= n/2, a
   phase ends when the informed count reaches 3/2 of the phase-start
   count; once U <= n/2, a phase ends when the uninformed count halves. *)
let doubling_phases tr ~n =
  if Array.length tr = 0 then []
  else begin
    let phases = ref [] in
    let phase_start_time = ref (fst tr.(0)) in
    let phase_start_count = ref (snd tr.(0)) in
    let close time =
      phases := (time -. !phase_start_time) :: !phases;
      phase_start_time := time
    in
    Array.iter
      (fun (time, count) ->
        let start = !phase_start_count in
        let target =
          if start <= n / 2 then
            (* growth phase: informed x 3/2 (at least +1) *)
            max (start + 1) ((3 * start + 1) / 2)
          else
            (* shrink phase: uninformed halved *)
            n - ((n - start) / 2)
        in
        (* Zero-progress entries (count = start, possible only on the
           initial point) do not close a phase. *)
        if count > start && count >= target then begin
          close time;
          phase_start_count := count
        end)
      tr;
    List.rev !phases
  end

let phase_count_bound ~n =
  let nf = float_of_int (max 2 n) in
  let log32 = log (nf /. 2.) /. log 1.5 in
  let log2 = log nf /. log 2. in
  int_of_float (Float.ceil log32 +. Float.ceil log2) + 2
