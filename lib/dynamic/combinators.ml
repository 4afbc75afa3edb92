open Rumor_rng
open Rumor_graph

let intermittent ~every (base : Dynet.t) =
  if every < 1 then invalid_arg "Combinators.intermittent: need every >= 1";
  let blank = Gen.empty base.Dynet.n in
  {
    Dynet.n = base.Dynet.n;
    name = Printf.sprintf "intermittent(%d, %s)" every base.Dynet.name;
    source_hint = base.Dynet.source_hint;
    spawn =
      (fun rng ->
        let inner = base.Dynet.spawn rng in
        let last_exposed = ref None in
        Dynet.make_instance (fun ~step ~informed ->
            if step mod every = 0 then begin
              let info = Dynet.next inner ~informed in
              last_exposed := Some info.Dynet.graph;
              if every = 1 then
                (* Pure passthrough: consecutive inner steps, so the
                   inner delta stays valid. *)
                { info with Dynet.changed = info.Dynet.changed }
              else if step = 0 then { info with Dynet.changed = true; delta = None }
              else
                (* Exposed after a blank stretch: every edge of the new
                   exposure appears at once. *)
                {
                  info with
                  Dynet.changed = true;
                  delta =
                    Some
                      (Dynet.make_delta
                         ~added:(Graph.edges info.Dynet.graph)
                         ~removed:[||]);
                }
            end
            else if (step - 1) mod every = 0 then
              (* Blank step right after an exposure: its edges vanish. *)
              let removed =
                match !last_exposed with Some g -> Graph.edges g | None -> [||]
              in
              Dynet.info_of_graph ~changed:true
                ~delta:(Dynet.make_delta ~added:[||] ~removed)
                ~phi:0. ~rho:0. ~rho_abs:0. blank
            else
              Dynet.info_of_graph ~changed:false ~phi:0. ~rho:0. ~rho_abs:0.
                blank))
  }

let with_edge_dropout ~p (base : Dynet.t) =
  if p < 0. || p > 1. then
    invalid_arg "Combinators.with_edge_dropout: p outside [0, 1]";
  {
    Dynet.n = base.Dynet.n;
    name = Printf.sprintf "dropout(%.2g, %s)" p base.Dynet.name;
    source_hint = base.Dynet.source_hint;
    spawn =
      (fun rng ->
        let inner = base.Dynet.spawn rng in
        Dynet.make_instance (fun ~step:_ ~informed ->
            let info = Dynet.next inner ~informed in
            let g = info.Dynet.graph in
            let b = Builder.create (Graph.n g) in
            Graph.iter_edges
              (fun u v ->
                if not (Rng.bernoulli rng p) then Builder.add_edge_exn b u v)
              g;
            Dynet.info_of_graph ~changed:true (Builder.freeze b)))
  }
