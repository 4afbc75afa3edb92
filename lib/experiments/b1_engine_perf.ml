(* B1 — engine performance: the cut-rate engine pays O(vol log n)
   total (O(deg) weight updates per informed node), independent of the
   spread time; the literal tick engine pays O(n * T) clock events.
   On sparse long-spread networks (cycle: T = Theta(n)) the cut engine
   wins by growing factors; on dense fast-spreading graphs (clique:
   T = Theta(log n) but vol = Theta(n^2)) the tick engine is cheaper.
   This experiment documents the trade-off so future engine changes
   are caught by inspection. *)

open Rumor_util
open Rumor_rng
open Rumor_dynamic

let cpu_time_of f =
  let t0 = Sys.time () in
  f ();
  Sys.time () -. t0

let run ~full rng =
  let ns = if full then [ 128; 256; 512; 1024 ] else [ 64; 128; 256 ] in
  let reps = if full then 20 else 10 in
  let table =
    Table.create
      ~aligns:[ Left; Right; Right; Right; Right ]
      [ "network"; "n"; "cut engine (ms/run)"; "tick engine (ms/run)"; "tick/cut" ]
  in
  (* (n, tick/cut) on the cycle rows, for the note. *)
  let cycle_ratios = ref [] in
  List.iter
    (fun n ->
      List.iter
        (fun (label, graph) ->
          let net = Dynet.of_static graph in
          let time engine =
            let rng = Rng.copy rng in
            cpu_time_of (fun () ->
                for _ = 1 to reps do
                  match engine with
                  | `Cut ->
                    ignore (Rumor_sim.Async_cut.run (Rng.split rng) net ~source:0)
                  | `Tick ->
                    ignore (Rumor_sim.Async_tick.run (Rng.split rng) net ~source:0)
                done)
            /. float_of_int reps *. 1000.
          in
          let cut = time `Cut in
          let tick = time `Tick in
          if label = "cycle" && cut > 0. then
            cycle_ratios := (n, tick /. cut) :: !cycle_ratios;
          Table.add_row table
            [
              label;
              Table.cell_i n;
              Table.cell_f ~digits:3 cut;
              Table.cell_f ~digits:3 tick;
              (if cut > 0. then Table.cell_f (tick /. cut) else "-");
            ])
        [
          ("clique", Rumor_graph.Gen.clique n);
          ("cycle", Rumor_graph.Gen.cycle n);
        ])
    ns;
  let out = Experiment.output_empty in
  let out =
    Experiment.add_table out
      "CPU time per run: cut-rate engine vs literal tick engine" table
  in
  let cycle_ratios = List.rev !cycle_ratios in
  let rec rising = function
    | (_, a) :: ((_, b) :: _ as rest) -> a < b && rising rest
    | _ -> true
  in
  let out =
    Experiment.add_note out
      (Printf.sprintf
         "cycle tick/cut measured %s: %s with the spread time, since the tick \
          engine simulates every wasted clock; on dense fast-spreading graphs \
          (clique) the tick engine is actually cheaper, since the cut engine \
          pays O(deg) weight updates per informed node."
         (String.concat ", "
            (List.map (fun (n, r) -> Printf.sprintf "%.1fx at n=%d" r n) cycle_ratios))
         (if rising cycle_ratios then "it grows" else "not monotone in n here (timer \
          noise), though it should grow"))
  in
  Experiment.add_note out
    "rule of thumb: use Cut unless the graph is dense AND the spread is \
     O(log n); both engines sample the same distribution (see the agreement \
     tests)."

let experiment =
  {
    Experiment.id = "B1";
    title = "Engine performance scaling";
    claim = "cut-rate wins on long spreads, tick on dense fast ones";
    run;
  }
