(* rumor — command-line front end.

   Subcommands:
     describe    build a network and print its graph parameters
     simulate    run the async/sync/flooding algorithm, Monte-Carlo summary
     bound       evaluate the paper's spread-time bounds on a network
     sweep       sweep the node count and fit the growth exponent
     trace       one traced run: milestones, phases, CSV/DOT export
     faults      hardened Monte-Carlo sweep under injected faults
                 (message loss, churn, slow nodes, partitions) with
                 exception isolation, watchdog and checkpoint/resume
     experiment  run a registered paper-validation experiment (E1..E13,
                 A1, A2, O1, B1, R1, F1, L)
     campaign    run registry experiments under the crash-safe supervised
                 harness: durable WAL journal, per-replicate deadlines,
                 retry/backoff, failure budget, graceful SIGINT/SIGTERM
                 shutdown and bit-identical --resume; --workers N forks
                 N supervised worker processes (lease/epoch fencing,
                 heartbeats, crash recovery, optional chaos kills) with
                 outputs byte-identical to --workers 1
     worker      campaign worker process: forked by campaign --workers
                 (Unix socket), or started by hand with --connect to
                 join a remote campaign over TCP (reconnect/resume,
                 frame CRCs)
     netchaos    deterministic TCP chaos proxy (latency, jitter, drops,
                 corruption, resets) for exercising the campaign's
                 network fault tolerance
     serve       long-lived spread-time query daemon: JSONL (or
                 length-prefixed) queries over TCP, memoized sweep cache
                 with WAL-backed restart, request coalescing, bounded
                 admission queue with explicit load shedding
     loadgen     drive a query mix against a serve daemon (open/closed
                 loop) and report throughput + latency quantiles
     obs         observability utilities: dump the metric registry

   Every run subcommand takes --obs-out DIR (or RUMOR_OBS_OUT) to
   mirror its results as structured artifacts: a run manifest with the
   metric-registry snapshot, plus JSONL/CSV rows where applicable.

   Monte-Carlo subcommands (simulate, sweep, faults, experiment) take
   -j/--jobs J (or RUMOR_JOBS; default: the processor count) to run
   replicates on J OCaml domains.  Every replicate's RNG stream is
   keyed by its index, so the printed numbers are bit-identical for
   any job count.

   Network specifications (-N/--network):
     clique | star | cycle | path | hypercube | regular | er |
     g1 | g2 | diligent | absolute | alternating | markovian | mobile
   sized with -n and family parameters --rho, --degree, -p, -q. *)

open Cmdliner
open Rumor_core.Rumor

(* --- network construction from CLI parameters --- *)

type net_params = Family.params = {
  family : string;
  n : int;
  rho : float;
  degree : int;
  p : float;
  q : float;
  seed : int;
}

let build_network params = Family.build params

(* --- observability --- *)

let obs_out_arg =
  let doc =
    "Write observability artifacts under $(docv): a run manifest (seed, \
     engine, network, wall time, metric-registry snapshot) per command, \
     plus structured JSONL rows from experiments.  Also enables metric \
     collection.  Falls back to $(b,RUMOR_OBS_OUT) when the flag is absent."
  in
  Arg.(value & opt (some string) None & info [ "obs-out" ] ~docv:"DIR" ~doc)

let setup_obs obs_out =
  match
    (match obs_out with Some d -> Some d | None -> Env.string "RUMOR_OBS_OUT")
  with
  | Some dir ->
    Obs.Metrics.enable ();
    Obs.Sink.set_dir (Some dir)
  | None -> ()

(* Evaluated before every subcommand body: each command term below
   composes [$ obs_term] first. *)
let obs_term = Term.(const setup_obs $ obs_out_arg)

(* Durations ("500ms", "10s", "5m", "1h", bare seconds) share one
   parser with the RUMOR_* environment knobs. *)
let duration_conv : float Arg.conv =
  let parse s =
    match Env.parse_duration s with
    | Ok v -> Ok v
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun ppf f -> Format.fprintf ppf "%gs" f)

(* "HOST:PORT" or bare "PORT" (host defaults to 127.0.0.1); the host
   stays unresolved until socket-open time. *)
let hostport_conv : (string * int) Arg.conv =
  let parse s =
    match Net.parse_hostport s with
    | Ok hp -> Ok hp
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun ppf (h, p) -> Format.fprintf ppf "%s:%d" h p)

(* --- replicate pool --- *)

let jobs_arg =
  let doc =
    "Worker domains for Monte-Carlo replicates.  Samples are \
     bit-identical for any value (replicate RNG streams are keyed by \
     index, not by schedule).  Falls back to $(b,RUMOR_JOBS), then to \
     the detected processor count."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"J" ~doc)

let setup_jobs jobs =
  match jobs with Some j -> Pool.set_default_jobs (Some j) | None -> ()

let jobs_term = Term.(const setup_jobs $ jobs_arg)

(* --- adaptive sequential stopping --- *)

type adaptive_flags = {
  ad_on : bool;
  ad_width : float;
  ad_rel : bool;
  ad_level : float;
  ad_min_reps : int;
  ad_chunk : int;
  ad_control : bool;
}

let adaptive_flags_term =
  let adaptive =
    Arg.(
      value & flag
      & info [ "adaptive" ]
          ~doc:
            "Sequential stopping: run replicates in chunks and stop as soon \
             as the CI half-width on the mean spread time reaches \
             $(b,--ci-width) (or the replicate budget runs out).  The \
             decided replicate prefix is bit-identical to a fixed-count \
             run for any --jobs; fixed count remains the default and the \
             byte-identity reference.")
  in
  let ci_width =
    Arg.(
      value & opt float 0.1
      & info [ "ci-width" ] ~docv:"W"
          ~doc:
            "Target CI half-width: absolute, or relative to the running \
             mean with $(b,--ci-rel).")
  in
  let ci_rel =
    Arg.(
      value & flag
      & info [ "ci-rel" ]
          ~doc:"Interpret --ci-width relative to the absolute running mean.")
  in
  let ci_level =
    Arg.(
      value & opt float 0.95
      & info [ "ci-level" ] ~docv:"L"
          ~doc:"Two-sided confidence level of the stopping CI.")
  in
  let min_reps =
    Arg.(
      value & opt int 16
      & info [ "min-reps" ] ~docv:"R"
          ~doc:"Never stop before this many replicates.")
  in
  let chunk =
    Arg.(
      value & opt int 16
      & info [ "ci-chunk" ] ~docv:"K"
          ~doc:"Replicates between stopping checks.")
  in
  let control =
    Arg.(
      value & flag
      & info [ "control" ]
          ~doc:
            "Control variates: shrink the CI (and the stopping point) with \
             the closed-form Rao-Blackwell residual of the family's static \
             graph.  Static families only; ignored for dynamic families.")
  in
  Term.(
    const (fun ad_on ad_width ad_rel ad_level ad_min_reps ad_chunk ad_control ->
        { ad_on; ad_width; ad_rel; ad_level; ad_min_reps; ad_chunk; ad_control })
    $ adaptive $ ci_width $ ci_rel $ ci_level $ min_reps $ chunk $ control)

let adaptive_config_of flags ~max_reps =
  if not flags.ad_on then None
  else
    Some
      (Adaptive.config ~level:flags.ad_level
         ~min_reps:(min flags.ad_min_reps max_reps)
         ~max_reps ~chunk:flags.ad_chunk
         (if flags.ad_rel then Adaptive.Rel flags.ad_width
          else Adaptive.Abs flags.ad_width))

let adaptive_manifest_extra (a : Run.adaptive) =
  [
    ("adaptive_consumed", Obs.Json.Int a.Run.consumed);
    ("adaptive_budget", Obs.Json.Int a.Run.max_reps);
    ("adaptive_half_width", Obs.Json.Float a.Run.half_width);
    ( "adaptive_reason",
      Obs.Json.String
        (match a.Run.reason with
        | Adaptive.Converged -> "converged"
        | Adaptive.Budget -> "budget") );
  ]
  @
  match a.Run.control with
  | Some c ->
    [ ("adaptive_variance_ratio", Obs.Json.Float c.Adaptive.variance_ratio) ]
  | None -> []

(* Manifest fields recording the pool shape of the run just finished:
   resolved job count plus per-domain busy wall time. *)
let pool_manifest_extra () =
  match Pool.last () with
  | Some st ->
    [
      ("jobs", Obs.Json.Int st.Pool.jobs);
      ( "domain_wall_s",
        Obs.Json.List
          (Array.to_list (Array.map (fun w -> Obs.Json.Float w) st.Pool.wall_s))
      );
    ]
  | None -> [ ("jobs", Obs.Json.Int (Pool.default_jobs ())) ]

(* One provenance record per CLI invocation; no-op without a sink. *)
let write_manifest ~kind ~id ?engine ?n ?reps ?extra ~network params wall_s =
  if Obs.Sink.active () then
    Obs.Run_manifest.write
      (Obs.Run_manifest.make ~kind ~id ~seed:params.seed
         ~rng_fingerprint:(Checkpoint.fingerprint (Rng.create params.seed))
         ?engine ~network ?n ?reps ?extra ~wall_s ())

(* --- common options --- *)

let family_arg =
  let doc =
    "Network family: clique, star, cycle, path, hypercube, regular, er, g1, \
     g2, diligent, absolute, alternating, markovian, mobile."
  in
  Arg.(value & opt string "clique" & info [ "N"; "network" ] ~docv:"FAMILY" ~doc)

let n_arg =
  Arg.(value & opt int 128 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of nodes.")

let rho_arg =
  Arg.(
    value & opt float 0.25
    & info [ "rho" ] ~docv:"RHO" ~doc:"Diligence parameter for the adaptive families.")

let degree_arg =
  Arg.(value & opt int 8 & info [ "degree" ] ~docv:"D" ~doc:"Degree for regular graphs.")

let p_arg =
  Arg.(
    value & opt float 0.05
    & info [ "p" ] ~docv:"P" ~doc:"Edge/birth probability (er, markovian).")

let q_arg =
  Arg.(value & opt float 0.2 & info [ "q" ] ~docv:"Q" ~doc:"Edge death probability (markovian).")

let seed_arg =
  Arg.(value & opt int 2020 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

let params_term =
  let combine family n rho degree p q seed = { family; n; rho; degree; p; q; seed } in
  Term.(
    const combine $ family_arg $ n_arg $ rho_arg $ degree_arg $ p_arg $ q_arg
    $ seed_arg)

(* --- describe --- *)

let describe () params steps =
  let net = build_network params in
  let rng = Rng.create params.seed in
  Printf.printf "network: %s (n = %d)\n" net.Dynet.name net.Dynet.n;
  (match net.Dynet.source_hint with
  | Some s -> Printf.printf "source hint: node %d\n" s
  | None -> ());
  let inst = net.Dynet.spawn rng in
  let informed = Bitset.create net.Dynet.n in
  let table =
    Table.create
      ~aligns:Table.[ Right; Right; Right; Right; Right; Right; Right ]
      [ "step"; "m"; "min deg"; "max deg"; "connected"; "phi"; "rho_bar" ]
  in
  for step = 0 to steps - 1 do
    let info = Dynet.next inst ~informed in
    let g = info.Dynet.graph in
    let connected = Traverse.is_connected g in
    let phi =
      match info.Dynet.phi with
      | Some v -> Table.cell_g v
      | None ->
        if not connected then "0"
        else if Graph.n g <= Cut.exact_size_limit then
          Table.cell_g (Cut.conductance_exact g)
        else Table.cell_g (Spectral.conductance_sweep (Rng.create 7) g) ^ "~"
    in
    Table.add_row table
      [
        Table.cell_i step;
        Table.cell_i (Graph.m g);
        Table.cell_i (Graph.min_degree g);
        Table.cell_i (Graph.max_degree g);
        (if connected then "yes" else "no");
        phi;
        Table.cell_g (Metrics.absolute_diligence g);
      ]
  done;
  Table.print table

let describe_cmd =
  let steps =
    Arg.(value & opt int 4 & info [ "steps" ] ~docv:"T" ~doc:"Steps to expose.")
  in
  Cmd.v
    (Cmd.info "describe" ~doc:"Build a network and print per-step parameters.")
    Term.(const describe $ obs_term $ params_term $ steps)

(* --- simulate --- *)

let simulate () () params adaptive algorithm engine reps horizon source =
  let net = build_network params in
  let rng = Rng.create params.seed in
  let source = match source with -1 -> None | s -> Some s in
  let t0 = Obs.Clock.now_s () in
  let adaptive_run = ref None in
  let mc =
    match algorithm with
    | "async" ->
      let engine, protocol =
        match engine with
        | "cut" -> (Rumor_sim.Run.Cut, Protocol.Push_pull)
        | "tick" -> (Rumor_sim.Run.Tick, Protocol.Push_pull)
        | "push" -> (Rumor_sim.Run.Cut, Protocol.Push)
        | "pull" -> (Rumor_sim.Run.Cut, Protocol.Pull)
        | other -> failwith (Printf.sprintf "unknown engine %S" other)
      in
      (match adaptive_config_of adaptive ~max_reps:reps with
      | Some config ->
        let control =
          if adaptive.ad_control then Family.static_graph params else None
        in
        let a =
          Run.async_spread_sweep_adaptive ~horizon ~engine ~protocol ?source
            ?control ~config rng net
        in
        adaptive_run := Some a;
        Run.mc_of_sweep a.Run.sweep
      | None ->
        Run.async_spread_times ~reps ~horizon ~engine ~protocol ?source rng net)
    | "sync" ->
      Run.sync_spread_rounds ~reps ~max_rounds:(int_of_float horizon) ?source rng net
    | "flood" ->
      Run.flooding_rounds ~reps ~max_rounds:(int_of_float horizon) ?source rng net
    | other -> failwith (Printf.sprintf "unknown algorithm %S" other)
  in
  let wall_s = Obs.Clock.now_s () -. t0 in
  Printf.printf "%s on %s: %d/%d runs completed\n" algorithm net.Dynet.name
    mc.Run.completed mc.Run.reps;
  Printf.printf "spread time: %s\n"
    (Format.asprintf "%a" Summary.pp (Summary.of_samples mc.Run.times));
  (match !adaptive_run with
  | Some a ->
    Printf.printf
      "adaptive: %s after %d/%d reps (mean %.4f ± %.4f at %.0f%%%s)\n"
      (match a.Run.reason with
      | Adaptive.Converged -> "converged"
      | Adaptive.Budget -> "budget exhausted")
      a.Run.consumed a.Run.max_reps a.Run.mean a.Run.half_width
      (100. *. a.Run.level)
      (match a.Run.control with
      | Some c ->
        Printf.sprintf ", control variate %.1fx" c.Adaptive.variance_ratio
      | None -> "")
  | None -> ());
  write_manifest ~kind:"simulate"
    ~id:(Printf.sprintf "simulate-%s-%s" algorithm net.Dynet.name)
    ~engine:(if algorithm = "async" then engine else algorithm)
    ~n:net.Dynet.n ~reps ~network:net.Dynet.name
    ~extra:
      (("completed", Obs.Json.Int mc.Run.completed)
      :: ((match !adaptive_run with
          | Some a -> adaptive_manifest_extra a
          | None -> [])
         @ pool_manifest_extra ()))
    params wall_s

let simulate_cmd =
  let algorithm =
    Arg.(
      value & opt string "async"
      & info [ "a"; "algorithm" ] ~docv:"ALG" ~doc:"async, sync or flood.")
  in
  let engine =
    Arg.(
      value & opt string "cut"
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:"Async engine: cut (fast), tick (literal), push, pull.")
  in
  let reps =
    Arg.(value & opt int 30 & info [ "reps" ] ~docv:"R" ~doc:"Monte-Carlo repetitions.")
  in
  let horizon =
    Arg.(
      value & opt float 1e6
      & info [ "horizon" ] ~docv:"H" ~doc:"Time/round budget per run.")
  in
  let source =
    Arg.(
      value & opt int (-1)
      & info [ "source" ] ~docv:"NODE" ~doc:"Source node (-1 = family hint).")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a rumor-spreading algorithm, Monte-Carlo style.")
    Term.(
      const simulate $ obs_term $ jobs_term $ params_term $ adaptive_flags_term
      $ algorithm $ engine $ reps $ horizon $ source)

(* --- bound --- *)

let bound () params c steps =
  let net = build_network params in
  let rng = Rng.create params.seed in
  let n = net.Dynet.n in
  let profiles = Bounds.profile ~steps rng net in
  let fmt = function
    | Some t -> string_of_int t
    | None -> Printf.sprintf "not reached in %d steps" steps
  in
  Printf.printf "network: %s (n = %d), profile of %d steps\n" net.Dynet.name n steps;
  let p0 = profiles.(0) in
  Printf.printf "step-0 parameters: phi = %.4g, rho = %.4g, rho_bar = %.4g\n"
    p0.Bounds.phi p0.Bounds.rho p0.Bounds.rho_abs;
  (try
     Printf.printf "Theorem 1.1  T(G,%.1f) = %s\n" c
       (fmt (Bounds.theorem_1_1_time ~c ~n profiles))
   with Invalid_argument _ ->
     Printf.printf
       "Theorem 1.1  T(G,%.1f) = unavailable (diligence unknown at this size; \
        use a family with analytic rho)\n"
       c);
  Printf.printf "Theorem 1.3  T_abs = %s\n" (fmt (Bounds.theorem_1_3_time ~n profiles));
  (try
     Printf.printf "Corollary 1.6 min = %s\n"
       (fmt (Bounds.corollary_1_6_time ~c ~n profiles))
   with Invalid_argument _ -> ());
  let giak = Giakkoupis.bound ~c:1. ~steps rng net in
  Printf.printf "Giakkoupis et al. [17]: M(G) = %.2f, bound = %s\n"
    giak.Giakkoupis.m_factor
    (fmt giak.Giakkoupis.bound_time)

let bound_cmd =
  let c =
    Arg.(
      value & opt float 1.
      & info [ "c" ] ~docv:"C" ~doc:"Failure-probability exponent of Theorem 1.1.")
  in
  let steps =
    Arg.(
      value & opt int 4096
      & info [ "steps" ] ~docv:"T" ~doc:"Profile length to accumulate over.")
  in
  Cmd.v
    (Cmd.info "bound" ~doc:"Evaluate the paper's spread-time bounds on a network.")
    Term.(const bound $ obs_term $ params_term $ c $ steps)

(* --- sweep --- *)

let sweep () () params adaptive sizes reps algorithm csv_path =
  let sizes =
    List.map
      (fun s ->
        match int_of_string_opt (String.trim s) with
        | Some n -> n
        | None -> failwith (Printf.sprintf "bad size %S" s))
      (String.split_on_char ',' sizes)
  in
  let rows = ref [] in
  let consumed_total = ref 0 in
  let t0 = Obs.Clock.now_s () in
  let table =
    Table.create
      ~aligns:Table.[ Right; Right; Right; Right; Right; Right ]
      [ "n"; "mean"; "median"; "q90"; "q99"; "completed" ]
  in
  List.iter
    (fun n ->
      let size_params = { params with n } in
      let net = build_network size_params in
      let rng = Rng.create params.seed in
      let mc =
        match algorithm with
        | "async" -> (
          match adaptive_config_of adaptive ~max_reps:reps with
          | Some config ->
            let control =
              if adaptive.ad_control then Family.static_graph size_params
              else None
            in
            let a =
              Run.async_spread_sweep_adaptive ?control ~config rng net
            in
            consumed_total := !consumed_total + a.Run.consumed;
            Run.mc_of_sweep a.Run.sweep
          | None -> Run.async_spread_times ~reps rng net)
        | "sync" -> Run.sync_spread_rounds ~reps rng net
        | "flood" -> Run.flooding_rounds ~reps rng net
        | other -> failwith (Printf.sprintf "unknown algorithm %S" other)
      in
      let s = Summary.of_samples mc.Run.times in
      let cells =
        [
          string_of_int n;
          Printf.sprintf "%.4f" s.Summary.mean;
          Printf.sprintf "%.4f" s.Summary.median;
          Printf.sprintf "%.4f" s.Summary.q90;
          Printf.sprintf "%.4f" s.Summary.q99;
          Printf.sprintf "%d/%d" mc.Run.completed mc.Run.reps;
        ]
      in
      rows := cells :: !rows;
      Table.add_row table cells)
    sizes;
  Table.print
    ~title:(Printf.sprintf "%s spread-time sweep over %s" algorithm params.family)
    table;
  if adaptive.ad_on && algorithm = "async" then
    Printf.printf "adaptive: %d/%d replicates consumed across %d sizes\n"
      !consumed_total
      (reps * List.length sizes)
      (List.length sizes);
  (* Growth-shape fit over the medians. *)
  (match sizes with
  | _ :: _ :: _ ->
    let points =
      List.rev_map
        (fun cells ->
          (float_of_string (List.nth cells 0), float_of_string (List.nth cells 2)))
        !rows
    in
    let fit = Regression.log_log points in
    Printf.printf "log-log growth exponent of the median: %.3f (R^2 = %.3f)\n"
      fit.Regression.slope fit.Regression.r_squared
  | _ -> ());
  (match csv_path with
  | Some path ->
    Export.write_file path
      (Export.csv_of_rows
         ~header:[ "n"; "mean"; "median"; "q90"; "q99"; "completed" ]
         (List.rev !rows));
    Printf.printf "rows written to %s\n" path
  | None -> ());
  (* Mirror the table into the sink alongside the manifest. *)
  if Obs.Sink.active () then
    Obs.Sink.write_csv
      (Printf.sprintf "sweep-%s-%s.csv" algorithm params.family)
      ~header:[ "n"; "mean"; "median"; "q90"; "q99"; "completed" ]
      (List.rev !rows);
  write_manifest ~kind:"sweep"
    ~id:(Printf.sprintf "sweep-%s-%s" algorithm params.family)
    ~engine:algorithm ~reps ~network:params.family
    ~extra:
      (("sizes", Obs.Json.List (List.map (fun n -> Obs.Json.Int n) sizes))
      :: ((if adaptive.ad_on && algorithm = "async" then
             [ ("adaptive_consumed", Obs.Json.Int !consumed_total) ]
           else [])
         @ pool_manifest_extra ()))
    params
    (Obs.Clock.now_s () -. t0)

let sweep_cmd =
  let sizes =
    Arg.(
      value
      & opt string "64,128,256,512"
      & info [ "sizes" ] ~docv:"N1,N2,..." ~doc:"Comma-separated node counts.")
  in
  let reps =
    Arg.(value & opt int 30 & info [ "reps" ] ~docv:"R" ~doc:"Repetitions per size.")
  in
  let algorithm =
    Arg.(
      value & opt string "async"
      & info [ "a"; "algorithm" ] ~docv:"ALG" ~doc:"async, sync or flood.")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"PATH" ~doc:"Also write the rows as CSV.")
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Sweep the node count and fit the growth exponent.")
    Term.(
      const sweep $ obs_term $ jobs_term $ params_term $ adaptive_flags_term
      $ sizes $ reps $ algorithm $ csv)

(* --- trace --- *)

let trace () params horizon csv_path dot_path =
  let net = build_network params in
  let rng = Rng.create params.seed in
  let source = Run.source_of net None in
  let t0 = Obs.Clock.now_s () in
  let result = Async_cut.run ~horizon ~record_trace:true rng net ~source in
  let wall_s = Obs.Clock.now_s () -. t0 in
  Printf.printf "%s: %s at time %.4f (%d informing events, %d steps)\n"
    net.Dynet.name
    (if result.Async_result.complete then "complete" else "incomplete")
    result.Async_result.time result.Async_result.events
    result.Async_result.steps;
  let tr = result.Async_result.trace in
  let n = net.Dynet.n in
  (* Milestones and Lemma 3.1 phase structure. *)
  List.iter
    (fun frac ->
      match Trace.time_to_fraction tr ~n frac with
      | Some t -> Printf.printf "  %3.0f%% informed at t = %.4f\n" (100. *. frac) t
      | None -> Printf.printf "  %3.0f%% informed: not reached\n" (100. *. frac))
    [ 0.1; 0.5; 0.9; 1.0 ];
  let phases = Trace.doubling_phases tr ~n in
  Printf.printf "  %d doubling phases (a-priori bound %d)\n" (List.length phases)
    (Trace.phase_count_bound ~n);
  (match csv_path with
  | Some path ->
    let rows =
      Array.to_list
        (Array.map
           (fun (t, c) -> [ Printf.sprintf "%.6f" t; string_of_int c ])
           tr)
    in
    Export.write_file path (Export.csv_of_rows ~header:[ "time"; "informed" ] rows);
    Printf.printf "  trajectory written to %s\n" path
  | None -> ());
  (match dot_path with
  | Some path ->
    (* Final graph snapshot with the informed set highlighted. *)
    let inst = net.Dynet.spawn (Rng.create params.seed) in
    let g = (Dynet.next inst ~informed:result.Async_result.informed).Dynet.graph in
    Export.write_file path
      (Export.to_dot ~name:"rumor" ~highlight:result.Async_result.informed g);
    Printf.printf "  DOT snapshot written to %s\n" path
  | None -> ());
  (* Per-step progress deltas + manifest into the sink. *)
  if Obs.Sink.active () then begin
    let informed = ref 1 in
    Array.iteri
      (fun step delta ->
        informed := !informed + delta;
        Obs.Sink.append_jsonl
          (Printf.sprintf "trace-%s.jsonl" net.Dynet.name)
          (Obs.Json.Obj
             [
               ("network", Obs.Json.String net.Dynet.name);
               ("step", Obs.Json.Int step);
               ("delta", Obs.Json.Int delta);
               ("informed", Obs.Json.Int !informed);
             ]))
      (Trace.per_step_progress tr)
  end;
  write_manifest ~kind:"trace"
    ~id:(Printf.sprintf "trace-%s" net.Dynet.name)
    ~engine:"cut" ~n:net.Dynet.n ~network:net.Dynet.name
    ~extra:
      [
        ("complete", Obs.Json.Bool result.Async_result.complete);
        ("time", Obs.Json.Float result.Async_result.time);
        ("events", Obs.Json.Int result.Async_result.events);
        ("steps", Obs.Json.Int result.Async_result.steps);
      ]
    params wall_s

let trace_cmd =
  let horizon =
    Arg.(value & opt float 1e6 & info [ "horizon" ] ~docv:"H" ~doc:"Time budget.")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"PATH" ~doc:"Write the (time, informed) trajectory as CSV.")
  in
  let dot =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"PATH"
          ~doc:"Write a Graphviz snapshot of the step-0 graph with the final informed set highlighted.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run once with trajectory recording; print milestones and phases.")
    Term.(const trace $ obs_term $ params_term $ horizon $ csv $ dot)

(* --- faults --- *)

let faults_cmd_run () () params engine reps horizon loss crash recover
    slow_frac slow_rate part_from part_until part_frac max_events checkpoint =
  let net = build_network params in
  let rng = Rng.create params.seed in
  let n = net.Dynet.n in
  let engine =
    match engine with
    | "cut" -> Rumor_sim.Run.Cut
    | "tick" -> Rumor_sim.Run.Tick
    | other -> failwith (Printf.sprintf "unknown engine %S" other)
  in
  let churn =
    if crash > 0. || recover > 0. then
      Some { Fault_plan.crash; recover }
    else None
  in
  let node_rate =
    if slow_frac > 0. then begin
      let cutoff = int_of_float (Float.round (slow_frac *. float_of_int n)) in
      Some (fun u -> if u < cutoff then slow_rate else 1.0)
    end
    else None
  in
  let partitions =
    if part_until > part_from then begin
      let cutoff = int_of_float (Float.round (part_frac *. float_of_int n)) in
      [
        {
          Fault_plan.from_step = part_from;
          until_step = part_until;
          side = (fun u -> u < cutoff);
        };
      ]
    end
    else []
  in
  let plan = Fault_plan.make ~loss ?node_rate ?churn ~partitions () in
  let t0 = Obs.Clock.now_s () in
  let sweep =
    Rumor_sim.Run.async_spread_sweep ~reps ~horizon ~engine ~faults:plan
      ?max_events ?checkpoint rng net
  in
  let wall_s = Obs.Clock.now_s () -. t0 in
  let finished, censored, failed = Rumor_sim.Run.sweep_counts sweep in
  Printf.printf "faulty async on %s (n = %d, engine %s):\n" net.Dynet.name n
    (match engine with Rumor_sim.Run.Cut -> "cut" | Tick -> "tick");
  Printf.printf "  plan: loss %.2f%s%s%s\n" loss
    (match churn with
    | Some { Fault_plan.crash; recover } ->
      Printf.sprintf ", churn crash %.2f / recover %.2f (availability %.2f)"
        crash recover
        (Fault_plan.availability { Fault_plan.crash; recover })
    | None -> "")
    (if slow_frac > 0. then
       Printf.sprintf ", %.0f%% of nodes at relative rate %.2f"
         (100. *. slow_frac) slow_rate
     else "")
    (if partitions <> [] then
       Printf.sprintf ", partition of the first %.0f%% during steps [%d, %d)"
         (100. *. part_frac) part_from part_until
     else "");
  Printf.printf "  outcomes: %d finished, %d censored, %d failed\n" finished
    censored failed;
  (match Rumor_sim.Run.first_failure sweep with
  | Some msg -> Printf.printf "  first failure: %s\n" msg
  | None -> ());
  let usable = Rumor_sim.Run.usable_times sweep in
  if Array.length usable > 0 then
    Printf.printf "  spread time over finished runs: %s\n"
      (Format.asprintf "%a" Summary.pp (Summary.of_samples usable))
  else Printf.printf "  no replicate finished before the horizon/budget.\n";
  (match checkpoint with
  | Some path ->
    Printf.printf "  checkpoint written to %s (re-run to resume/extend)\n" path
  | None -> ());
  write_manifest ~kind:"faults"
    ~id:(Printf.sprintf "faults-%s" net.Dynet.name)
    ~engine:(match engine with Rumor_sim.Run.Cut -> "cut" | Tick -> "tick")
    ~n ~reps ~network:net.Dynet.name
    ~extra:
      ([
         ("loss", Obs.Json.Float loss);
         ("finished", Obs.Json.Int finished);
         ("censored", Obs.Json.Int censored);
         ("failed", Obs.Json.Int failed);
       ]
      @ pool_manifest_extra ())
    params wall_s

let faults_cmd =
  let engine =
    Arg.(
      value & opt string "cut"
      & info [ "engine" ] ~docv:"ENGINE" ~doc:"Async engine: cut or tick.")
  in
  let reps =
    Arg.(value & opt int 30 & info [ "reps" ] ~docv:"R" ~doc:"Monte-Carlo repetitions.")
  in
  let horizon =
    Arg.(
      value & opt float 1e5
      & info [ "horizon" ] ~docv:"H" ~doc:"Time budget per run.")
  in
  let loss =
    Arg.(
      value & opt float 0.
      & info [ "loss" ] ~docv:"P"
          ~doc:"Per-message loss probability (thinning: equivalent to rate 1-P).")
  in
  let crash =
    Arg.(
      value & opt float 0.
      & info [ "crash" ] ~docv:"P" ~doc:"Per-step crash probability (churn).")
  in
  let recover =
    Arg.(
      value & opt float 0.
      & info [ "recover" ] ~docv:"P" ~doc:"Per-step recovery probability (churn).")
  in
  let slow_frac =
    Arg.(
      value & opt float 0.
      & info [ "slow-frac" ] ~docv:"F"
          ~doc:"Fraction of nodes whose clock runs at --slow-rate.")
  in
  let slow_rate =
    Arg.(
      value & opt float 0.5
      & info [ "slow-rate" ] ~docv:"R"
          ~doc:"Relative clock rate of the slow nodes.")
  in
  let part_from =
    Arg.(
      value & opt int 0
      & info [ "partition-from" ] ~docv:"T" ~doc:"First step of the partition window.")
  in
  let part_until =
    Arg.(
      value & opt int 0
      & info [ "partition-until" ] ~docv:"T"
          ~doc:"First step after the partition window (0 = no partition).")
  in
  let part_frac =
    Arg.(
      value & opt float 0.5
      & info [ "partition-frac" ] ~docv:"F"
          ~doc:"Fraction of nodes cut off by the partition.")
  in
  let max_events =
    Arg.(
      value & opt (some int) None
      & info [ "max-events" ] ~docv:"B"
          ~doc:"Watchdog: per-replicate event budget; overruns are censored.")
  in
  let checkpoint =
    Arg.(
      value & opt (some string) None
      & info [ "checkpoint" ] ~docv:"PATH"
          ~doc:"Checkpoint replicate outcomes here; resumes if the file exists.")
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Hardened Monte-Carlo sweep under injected faults: message loss, \
          crash/recovery churn, slow clocks, partition windows; replicate \
          failures are isolated, runaways censored, outcomes checkpointed.  \
          Replicates run on -j/--jobs domains (bit-identical samples).")
    Term.(
      const faults_cmd_run $ obs_term $ jobs_term $ params_term $ engine $ reps
      $ horizon $ loss
      $ crash $ recover $ slow_frac $ slow_rate $ part_from $ part_until
      $ part_frac $ max_events $ checkpoint)

(* --- experiment --- *)

(* Campaign-wide adaptive opt-in: installs the process default that
   [Workloads.measure_async] consults, so replicate loops buried in
   experiment code stop sequentially without any per-experiment
   plumbing.  Each experiment's own replicate count stays the budget. *)
let adaptive_rel_width_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "adaptive-rel-width" ] ~docv:"R"
        ~doc:
          "Adaptive opt-in for experiment replicate loops: stop each \
           Monte-Carlo measurement once the CI half-width on its mean \
           spread time reaches $(docv) times the running mean (each \
           experiment's replicate count remains the budget; decided \
           prefixes stay bit-identical to fixed-count runs).")

let setup_default_adaptive = function
  | Some r -> Run.set_default_adaptive (Some (Adaptive.config (Adaptive.Rel r)))
  | None -> ()

let experiment () () adaptive_rel id full seed =
  setup_default_adaptive adaptive_rel;
  match String.lowercase_ascii id with
  | "all" -> Rumor_experiments.Registry.run_all ~full ~seed ()
  | id -> (
    match Rumor_experiments.Registry.find id with
    | Some e -> Rumor_experiments.Experiment.print ~full ~seed e
    | None ->
      Printf.eprintf "unknown experiment %S; known: %s\n" id
        (String.concat ", "
           (List.map
              (fun e -> e.Rumor_experiments.Experiment.id)
              Rumor_experiments.Registry.all));
      exit 2)

let experiment_cmd =
  let id =
    Arg.(
      value & pos 0 string "all"
      & info [] ~docv:"ID" ~doc:"Experiment id (E1..E12, A1, A2, O1, B1, R1, F1, L) or 'all'.")
  in
  let full =
    Arg.(value & flag & info [ "full" ] ~doc:"Full-size sweeps instead of quick mode.")
  in
  let seed = seed_arg in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Run a registered paper-validation experiment.")
    Term.(
      const experiment $ obs_term $ jobs_term $ adaptive_rel_width_arg $ id
      $ full $ seed)

(* --- campaign --- *)

let print_outcomes outcomes =
  List.iter
    (fun (id, outcome) ->
      Printf.printf "  %-4s %s\n" id
        (match outcome with
        | Campaign.Done wall -> Printf.sprintf "done (%.1fs)" wall
        | Campaign.Cached -> "done (journaled by a previous run)"
        | Campaign.Quarantined err -> Printf.sprintf "quarantined: %s" err
        | Campaign.Interrupted -> "interrupted (re-run with --resume)"
        | Campaign.Not_run -> "not run"))
    outcomes

(* Multi-process path: fork [workers] re-execs of this binary in the
   hidden [worker] mode; each pulls leased task batches from the
   coordinator over the campaign directory's Unix-domain socket.  The
   captured per-task outputs land in <dir>/tasks/<id>.out and are
   byte-identical to a --workers 1 run whatever dies in between. *)
let campaign_multiproc ~ids ~dir ~resume ~retries ~fail_budget ~full ~seed
    ~workers ~min_workers ~batch ~heartbeat_timeout ~chaos ~listen ~token
    ~adaptive_rel task_ids =
  Campaign.install_signal_handlers ();
  let config =
    {
      (Coordinator.default_config ~dir ~workers) with
      Coordinator.min_workers;
      batch;
      resume;
      retries;
      fail_budget;
      seed;
      heartbeat_timeout_s = heartbeat_timeout;
      chaos_kill_every_s = chaos;
      listen;
      token;
    }
  in
  (match listen with
  | Some (h, p) ->
    Printf.printf
      "campaign: accepting remote workers on %s:%d%s (bound port in %s)\n%!" h
      p
      (if token = None then "" else " (token required)")
      (Coordinator.port_path config)
  | None -> ());
  let spawn ~slot ~socket =
    let args =
      [
        "rumor"; "worker"; "--socket"; socket; "--id"; string_of_int slot;
        "--tasks-dir"; Coordinator.tasks_dir config; "--seed";
        string_of_int seed;
      ]
      @ (if full then [ "--full" ] else [])
      @ (match adaptive_rel with
        | Some r -> [ "--adaptive-rel-width"; string_of_float r ]
        | None -> [])
    in
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin
      Unix.stdout Unix.stderr
  in
  let summary = Coordinator.run ~spawn config task_ids in
  Printf.printf "campaign: %d task%s under %s, %d worker process%s%s%s\n"
    (List.length task_ids)
    (if List.length task_ids = 1 then "" else "s")
    dir workers
    (if workers = 1 then "" else "es")
    (if summary.Coordinator.resumed then " (resumed)" else "")
    (match chaos with
    | Some d -> Printf.sprintf " (chaos: kill every %gs)" d
    | None -> "");
  print_outcomes summary.Coordinator.outcomes;
  if summary.Coordinator.reassignments > 0 then
    Printf.printf "  %d task reassignment%s after reclaimed leases\n"
      summary.Coordinator.reassignments
      (if summary.Coordinator.reassignments = 1 then "" else "s");
  if summary.Coordinator.fences + summary.Coordinator.replay_fenced > 0 then
    Printf.printf "  %d stale result%s fenced (%d live, %d at replay)\n"
      (summary.Coordinator.fences + summary.Coordinator.replay_fenced)
      (if summary.Coordinator.fences + summary.Coordinator.replay_fenced = 1
       then ""
       else "s")
      summary.Coordinator.fences summary.Coordinator.replay_fenced;
  if summary.Coordinator.worker_deaths + summary.Coordinator.chaos_kills > 0
  then
    Printf.printf "  %d worker death%s (%d chaos kills), %d restart%s\n"
      (summary.Coordinator.worker_deaths + summary.Coordinator.chaos_kills)
      (if summary.Coordinator.worker_deaths + summary.Coordinator.chaos_kills
          = 1
       then ""
       else "s")
      summary.Coordinator.chaos_kills summary.Coordinator.worker_restarts
      (if summary.Coordinator.worker_restarts = 1 then "" else "s");
  if summary.Coordinator.remote_reconnects > 0 then
    Printf.printf "  %d worker reconnect%s resumed an existing slot\n"
      summary.Coordinator.remote_reconnects
      (if summary.Coordinator.remote_reconnects = 1 then "" else "s");
  if summary.Coordinator.rejected > 0 then
    Printf.printf "  %d hello%s rejected at admission (version/token/pid)\n"
      summary.Coordinator.rejected
      (if summary.Coordinator.rejected = 1 then "" else "s");
  if summary.Coordinator.wal_corrupt_records > 0 then
    Printf.printf "  %d corrupt journal record%s quarantined on recovery\n"
      summary.Coordinator.wal_corrupt_records
      (if summary.Coordinator.wal_corrupt_records = 1 then "" else "s");
  if summary.Coordinator.interrupted then
    Printf.printf
      "campaign interrupted; resume with: rumor campaign %s --dir %s \
       --workers %d --resume\n"
      ids dir workers;
  if summary.Coordinator.aborted then
    Printf.printf "campaign aborted (min-workers or failure budget)\n";
  Printf.printf "outputs: %s/<id>.out\nmanifest: %s\n"
    (Coordinator.tasks_dir config)
    (Coordinator.manifest_path config);
  exit (Coordinator.exit_code summary)

let campaign () () ids dir resume deadline retries backoff fail_budget full
    seed workers min_workers batch heartbeat_timeout chaos listen token
    adaptive_rel =
  setup_default_adaptive adaptive_rel;
  let experiments =
    match String.lowercase_ascii (String.trim ids) with
    | "all" -> Rumor_experiments.Registry.all
    | spec ->
      List.map
        (fun id ->
          let id = String.trim id in
          match Rumor_experiments.Registry.find id with
          | Some e -> e
          | None ->
            Printf.eprintf "unknown experiment %S; known: %s\n" id
              (String.concat ", " Rumor_experiments.Registry.ids);
            exit 2)
        (String.split_on_char ',' spec)
  in
  if workers > 0 || listen <> None then
    campaign_multiproc ~ids ~dir ~resume ~retries ~fail_budget ~full ~seed
      ~workers ~min_workers ~batch ~heartbeat_timeout ~chaos ~listen ~token
      ~adaptive_rel
      (List.map (fun e -> e.Rumor_experiments.Experiment.id) experiments)
  else begin
    let tasks =
      List.map
        (fun e ->
          {
            Campaign.id = e.Rumor_experiments.Experiment.id;
            run = (fun () -> Rumor_experiments.Experiment.print ~full ~seed e);
          })
        experiments
    in
    Campaign.install_signal_handlers ();
    let config =
      {
        (Campaign.default_config ~dir) with
        Campaign.resume;
        deadline_s = deadline;
        retries;
        backoff_s = backoff;
        fail_budget;
      }
    in
    let summary = Campaign.run config tasks in
    Printf.printf "campaign: %d task%s under %s%s\n"
      (List.length tasks)
      (if List.length tasks = 1 then "" else "s")
      dir
      (if summary.Campaign.resumed then " (resumed)" else "");
    print_outcomes summary.Campaign.outcomes;
    if summary.Campaign.retries > 0 then
      Printf.printf "  %d transient retr%s\n" summary.Campaign.retries
        (if summary.Campaign.retries = 1 then "y" else "ies");
    if summary.Campaign.wal_corrupt_records > 0 then
      Printf.printf "  %d corrupt journal record%s quarantined on recovery\n"
        summary.Campaign.wal_corrupt_records
        (if summary.Campaign.wal_corrupt_records = 1 then "" else "s");
    if summary.Campaign.interrupted then
      Printf.printf
        "campaign interrupted; resume with: rumor campaign %s --dir %s \
         --resume\n"
        ids dir;
    if summary.Campaign.aborted then
      Printf.printf "campaign aborted: quarantined fraction exceeded %.2f\n"
        fail_budget;
    Printf.printf "manifest: %s\n" (Campaign.manifest_path config);
    exit (Campaign.exit_code summary)
  end

let campaign_cmd =
  let ids =
    Arg.(
      value & pos 0 string "all"
      & info [] ~docv:"IDS"
          ~doc:"Experiment id, comma-separated list, or 'all'.")
  in
  let dir =
    Arg.(
      value & opt string "campaign"
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Campaign directory: the durable journal (campaign.wal) and \
                the manifest (campaign.manifest.json) live here.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:"Reuse the journal in --dir: journaled-done tasks are \
                skipped and the rest re-run bit-identically (replicate RNG \
                streams are index-keyed).  Without this flag a fresh \
                journal is started.")
  in
  let deadline =
    Arg.(
      value & opt (some float) None
      & info [ "deadline" ] ~docv:"S"
          ~doc:"Per-replicate wall-clock deadline in seconds; an expired \
                replicate is censored (harness.deadline_censored) and fed \
                to the censoring-aware estimators.")
  in
  let retries =
    Arg.(
      value & opt int 1
      & info [ "retries" ] ~docv:"K"
          ~doc:"Extra attempts per task after a transient failure \
                (I/O errors, out-of-memory); deterministic failures are \
                quarantined immediately.")
  in
  let backoff =
    Arg.(
      value & opt float 0.5
      & info [ "backoff" ] ~docv:"S"
          ~doc:"Base exponential backoff between retry attempts.")
  in
  let fail_budget =
    Arg.(
      value & opt float 1.0
      & info [ "fail-budget" ] ~docv:"F"
          ~doc:"Abort the campaign once quarantined tasks exceed this \
                fraction of the task list (1.0 disables the gate).")
  in
  let full =
    Arg.(
      value & flag
      & info [ "full" ] ~doc:"Full-size sweeps instead of quick mode.")
  in
  let duration = duration_conv in
  let workers =
    Arg.(
      value & opt int 0
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Fork $(docv) worker processes and distribute tasks over a \
             Unix-domain socket with lease/epoch fencing; dead workers \
             (crash, OOM-kill, heartbeat timeout) have their leases \
             reclaimed and tasks reassigned.  Captured outputs \
             (<dir>/tasks/<id>.out) are byte-identical to --workers 1.  \
             0 (the default) keeps the single-process campaign runner.")
  in
  let min_workers =
    Arg.(
      value & opt int 1
      & info [ "min-workers" ] ~docv:"N"
          ~doc:
            "Abort the campaign when live (non-demoted) workers fall \
             below $(docv).")
  in
  let batch =
    Arg.(
      value & opt int 1
      & info [ "batch" ] ~docv:"K"
          ~doc:"Tasks per lease grant (reassignment granularity).")
  in
  let heartbeat_timeout =
    Arg.(
      value & opt duration 30.
      & info [ "heartbeat-timeout" ] ~docv:"DUR"
          ~doc:
            "Declare a worker dead after $(docv) of heartbeat silence \
             (e.g. 10s, 500ms); its late results are fenced.")
  in
  let chaos =
    Arg.(
      value & opt (some duration) None
      & info [ "chaos-kill-every" ] ~docv:"DUR"
          ~doc:
            "Chaos mode: SIGKILL a random live worker every $(docv).  \
             Chaos kills charge no restart or retry budget — they \
             exercise the recovery machinery, which must still produce \
             outputs byte-identical to an undisturbed run.")
  in
  let listen =
    Arg.(
      value & opt (some hostport_conv) None
      & info [ "listen" ] ~docv:"HOST:PORT"
          ~doc:
            "Also accept remote workers ($(b,rumor worker --connect)) \
             over TCP on $(docv) (bare PORT binds 127.0.0.1; port 0 asks \
             the kernel — the bound port is written to \
             $(i,DIR)/coord.port).  Remote workers present a versioned \
             hello and negotiate per-frame CRC trailers; --workers may \
             be 0 to run with remote workers only.")
  in
  let token =
    Arg.(
      value & opt (some string) None
      & info [ "token" ] ~docv:"TOKEN"
          ~doc:
            "Campaign token remote workers must present in their hello; \
             a mismatch is rejected at admission.  Without this flag any \
             remote worker is admitted.")
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run registry experiments under the crash-safe supervised \
          harness: durable CRC-framed journal, per-replicate wall-clock \
          deadlines, transient retry with backoff, a failure budget, and \
          graceful SIGINT/SIGTERM shutdown with --resume continuing \
          bit-identically.  With --workers N, tasks are distributed over \
          N supervised worker processes with lease/epoch fencing and \
          crash recovery.")
    Term.(
      const campaign $ obs_term $ jobs_term $ ids $ dir $ resume $ deadline
      $ retries $ backoff $ fail_budget $ full $ seed_arg $ workers
      $ min_workers $ batch $ heartbeat_timeout $ chaos $ listen $ token
      $ adaptive_rel_width_arg)

(* --- worker: forked by campaign --workers, or started by hand with
   --connect on another machine --- *)

let worker_main () () socket connect token id tasks_dir seed full adaptive_rel
    =
  setup_default_adaptive adaptive_rel;
  let transport =
    match (socket, connect) with
    | Some s, None -> Worker.Unix_sock s
    | None, Some (host, port) -> Worker.Tcp { host; port; token }
    | Some _, Some _ ->
      prerr_endline "rumor worker: --socket and --connect are exclusive";
      exit 2
    | None, None ->
      prerr_endline "rumor worker: one of --socket or --connect is required";
      exit 2
  in
  let tasks_dir =
    match tasks_dir with
    | Some d -> d
    | None ->
      (* Remote workers inline their captured output in the result
         frame; the local spool only holds in-flight partials. *)
      let d =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "rumor-worker-%d" (Unix.getpid ()))
      in
      (try Unix.mkdir d 0o755
       with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      d
  in
  (* The coordinator owns shutdown: a terminal SIGINT must not tear the
     worker out from under an active lease (the Stop frame or a
     reclaimed lease handles every orderly path). *)
  (try Sys.set_signal Sys.sigint Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  (try Sys.set_signal Sys.sigterm Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let run_task task =
    match Rumor_experiments.Registry.find task with
    | Some e -> Rumor_experiments.Experiment.print ~full ~seed e
    | None -> failwith (Printf.sprintf "unknown experiment %S" task)
  in
  exit (Worker.run ~transport ~id ~tasks_dir ~run_task ())

let worker_cmd =
  let socket =
    Arg.(
      value & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Coordinator Unix-domain socket path (local workers forked \
             by $(b,rumor campaign --workers)).")
  in
  let connect =
    Arg.(
      value & opt (some hostport_conv) None
      & info [ "connect" ] ~docv:"HOST:PORT"
          ~doc:
            "Dial a remote coordinator started with $(b,rumor campaign \
             --listen).  The worker reconnects with jittered exponential \
             backoff on connection loss, resumes its worker id and \
             re-sends unacknowledged results; per-frame CRC trailers \
             are negotiated at admission.")
  in
  let token =
    Arg.(
      value & opt (some string) None
      & info [ "token" ] ~docv:"TOKEN"
          ~doc:
            "Campaign token to present in the hello; must match the \
             coordinator's $(b,--token) or admission is rejected \
             (exit 3).")
  in
  let id =
    Arg.(
      value & opt int (-1)
      & info [ "id" ] ~docv:"SLOT"
          ~doc:
            "Worker slot number.  With --connect, -1 (the default) lets \
             the coordinator assign an id in its Welcome.")
  in
  let tasks_dir =
    Arg.(
      value & opt (some string) None
      & info [ "tasks-dir" ] ~docv:"DIR"
          ~doc:
            "Directory for captured task outputs (required with \
             --socket, where the coordinator reads the files; remote \
             workers default to a private temp spool and ship the bytes \
             in the result frame).")
  in
  let full =
    Arg.(
      value & flag
      & info [ "full" ] ~doc:"Full-size sweeps instead of quick mode.")
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Campaign worker process: forked by $(b,rumor campaign \
          --workers) over a Unix-domain socket, or started by hand with \
          $(b,--connect HOST:PORT) to join a remote campaign over TCP \
          with reconnect/resume and frame CRCs.")
    Term.(
      const worker_main $ obs_term $ jobs_term $ socket $ connect $ token
      $ id $ tasks_dir $ seed_arg $ full $ adaptive_rel_width_arg)

(* --- netchaos: deterministic TCP chaos proxy --- *)

let netchaos_main () listen forward seed latency jitter bandwidth drop dup
    corrupt truncate reset reset_after max_resets =
  let listen_host, listen_port = listen in
  let forward_host, forward_port = forward in
  let fault =
    {
      Netchaos.latency_s = latency;
      jitter_s = jitter;
      bandwidth_bps = bandwidth;
      drop_p = drop;
      dup_p = dup;
      corrupt_p = corrupt;
      truncate_p = truncate;
      reset_p = reset;
      reset_after_bytes = reset_after;
      max_resets;
    }
  in
  let t =
    Netchaos.start ~seed ~listen_host ~port:listen_port ~forward_host
      ~forward_port fault
  in
  Printf.printf "netchaos: listening on %d, forwarding to %s:%d (seed %d)\n%!"
    (Netchaos.port t) forward_host forward_port seed;
  let stop = ref false in
  let on_sig _ = stop := true in
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle on_sig)
   with Invalid_argument _ | Sys_error _ -> ());
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle on_sig)
   with Invalid_argument _ | Sys_error _ -> ());
  while not !stop do
    try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Netchaos.stop t;
  let s = Netchaos.stats t in
  Printf.printf
    "netchaos: %d conn%s, %d chunk%s (%d bytes); dropped %d, duplicated %d, \
     corrupted %d, truncated %d, reset %d\n"
    s.Netchaos.conns
    (if s.Netchaos.conns = 1 then "" else "s")
    s.Netchaos.chunks
    (if s.Netchaos.chunks = 1 then "" else "s")
    s.Netchaos.bytes s.Netchaos.dropped_chunks s.Netchaos.dup_chunks
    s.Netchaos.corrupted_chunks s.Netchaos.truncated_chunks
    s.Netchaos.resets

let netchaos_cmd =
  let prob_conv : float Arg.conv =
    let parse s =
      match float_of_string_opt s with
      | Some p when p >= 0. && p <= 1. -> Ok p
      | Some _ -> Error (`Msg "probability must be in [0, 1]")
      | None -> Error (`Msg (Printf.sprintf "invalid probability %S" s))
    in
    Arg.conv (parse, fun ppf p -> Format.fprintf ppf "%g" p)
  in
  let listen =
    Arg.(
      value & opt hostport_conv ("127.0.0.1", 0)
      & info [ "listen" ] ~docv:"HOST:PORT"
          ~doc:
            "Listen address (default 127.0.0.1 with a kernel-assigned \
             port, printed on startup).")
  in
  let forward =
    Arg.(
      required & opt (some hostport_conv) None
      & info [ "forward" ] ~docv:"HOST:PORT"
          ~doc:"Forward every accepted connection to $(docv).")
  in
  let latency =
    Arg.(
      value & opt duration_conv 0.
      & info [ "latency" ] ~docv:"DUR"
          ~doc:"Fixed one-way delay added to every chunk (e.g. 20ms).")
  in
  let jitter =
    Arg.(
      value & opt duration_conv 0.
      & info [ "jitter" ] ~docv:"DUR"
          ~doc:"Uniform extra delay in [0, $(docv)) per chunk.")
  in
  let bandwidth =
    Arg.(
      value & opt (some int) None
      & info [ "bandwidth" ] ~docv:"BPS"
          ~doc:"Per-direction throughput cap in bytes per second.")
  in
  let drop =
    Arg.(
      value & opt prob_conv 0.
      & info [ "drop" ] ~docv:"P"
          ~doc:"Probability a chunk is silently discarded.")
  in
  let dup =
    Arg.(
      value & opt prob_conv 0.
      & info [ "dup" ] ~docv:"P"
          ~doc:"Probability a chunk is delivered twice.")
  in
  let corrupt =
    Arg.(
      value & opt prob_conv 0.
      & info [ "corrupt" ] ~docv:"P"
          ~doc:
            "Probability one byte of a chunk is flipped (the frame CRC \
             must catch it).")
  in
  let truncate =
    Arg.(
      value & opt prob_conv 0.
      & info [ "truncate" ] ~docv:"P"
          ~doc:
            "Probability a chunk is cut in half and the link then reset.")
  in
  let reset =
    Arg.(
      value & opt prob_conv 0.
      & info [ "reset" ] ~docv:"P"
          ~doc:
            "Probability the link is abortively reset (ECONNRESET at the \
             peers) before a chunk.")
  in
  let reset_after =
    Arg.(
      value & opt (some int) None
      & info [ "reset-after" ] ~docv:"BYTES"
          ~doc:
            "Reset each connection once it has carried $(docv) bytes in \
             one direction.")
  in
  let max_resets =
    Arg.(
      value & opt (some int) None
      & info [ "max-resets" ] ~docv:"N"
          ~doc:
            "Global budget for resets + truncations (use 1 for \
             'exactly one forced failure'); unlimited when absent.")
  in
  Cmd.v
    (Cmd.info "netchaos"
       ~doc:
         "Deterministic TCP chaos proxy: forward connections while \
          injecting latency, jitter, bandwidth caps, chunk drops, \
          duplicates, corruption, truncation and abortive resets, all \
          scheduled by a seed.  Put $(b,rumor worker --connect) traffic \
          behind it and the campaign must still produce byte-identical \
          outputs.  Runs until SIGINT/SIGTERM, then prints fault \
          counters.")
    Term.(
      const netchaos_main $ obs_term $ listen $ forward $ seed_arg $ latency
      $ jitter $ bandwidth $ drop $ dup $ corrupt $ truncate $ reset
      $ reset_after $ max_resets)

(* --- obs --- *)

let obs_dump () =
  (* The engines register their counters at module initialisation, so
     the dump shows the full registry shape (values are zero unless a
     command ran in this process). *)
  Obs.Metrics.enable ();
  print_endline
    (Obs.Json.to_string ~pretty:true
       (Obs.Json.Obj
          [
            ("metrics", Obs.Metrics.snapshot ());
            ("spans", Obs.Span.snapshot ());
          ]))

let obs_dump_cmd =
  Cmd.v
    (Cmd.info "dump"
       ~doc:
         "Print the metric registry (counters, gauges, histograms, spans) as \
          JSON.")
    Term.(const obs_dump $ const ())

let obs_cmd =
  Cmd.group
    (Cmd.info "obs" ~doc:"Observability utilities: dump the metric registry.")
    [ obs_dump_cmd ]

(* --- serve --- *)

let serve_run () () dir host port queue_cap cache_cap chunk read_timeout
    throttle no_fsync =
  let config =
    {
      (Serve.Server.default_config ~dir) with
      Serve.Server.host;
      port;
      queue_cap;
      cache_cap;
      chunk;
      read_timeout_s = read_timeout;
      throttle_s = throttle;
      fsync = not no_fsync;
    }
  in
  let t = Serve.Server.create config in
  let stop _ = Serve.Server.stop t in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Printf.printf "rumor serve: listening on %s:%d (cache dir %s, queue %d, \
                 chunk %d)\n%!"
    config.Serve.Server.host (Serve.Server.port t) dir queue_cap chunk;
  Serve.Server.serve t;
  let c = Serve.Server.counters t in
  Printf.printf
    "drained: %d requests — %d hits, %d misses, %d coalesced, %d shed, %d \
     stalled drops, %d errors\n"
    c.Serve.Server.requests c.hits c.misses c.coalesced c.shed c.stalled_drops
    c.errors

let serve_cmd =
  let dir =
    Arg.(
      value & opt string "serve-cache"
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Cache directory: the WAL-journaled result store \
                (results.wal), sweep checkpoints and the shutdown manifest \
                (serve.manifest.json) live here; a restarted server serves \
                its warm set again.")
  in
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"Listen address.")
  in
  let port =
    Arg.(
      value & opt int 4123
      & info [ "port" ] ~docv:"PORT" ~doc:"Listen port (0 = ephemeral).")
  in
  let queue_cap =
    Arg.(
      value & opt int 64
      & info [ "queue-cap" ] ~docv:"K"
          ~doc:"Admission-queue bound; at capacity new queries are shed \
                immediately with an 'overloaded' response.")
  in
  let cache_cap =
    Arg.(
      value & opt int 512
      & info [ "cache-cap" ] ~docv:"K" ~doc:"LRU capacity (cached sweeps).")
  in
  let chunk =
    Arg.(
      value & opt int 8
      & info [ "chunk" ] ~docv:"K"
          ~doc:"Replicates per compute chunk (streamed partial-update \
                granularity).")
  in
  let read_timeout =
    Arg.(
      value & opt duration_conv 30.
      & info [ "read-timeout" ] ~docv:"DUR"
          ~doc:"Drop a connection holding an incomplete request longer \
                than $(docv) (e.g. 500ms, 10s; 0 disables).")
  in
  let throttle =
    Arg.(
      value & opt duration_conv 0.
      & info [ "throttle" ] ~docv:"DUR"
          ~doc:"Testing hook: sleep $(docv) before each compute chunk.")
  in
  let no_fsync =
    Arg.(
      value & flag
      & info [ "no-fsync" ]
          ~doc:"Skip fsync on journal appends (testing only).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-lived spread-time query service: line-delimited JSON (or \
          length-prefixed frames) over TCP, memoized sweep cache with \
          WAL-backed restart, request coalescing, bounded admission queue \
          with load shedding.")
    Term.(
      const serve_run $ obs_term $ jobs_term $ dir $ host $ port $ queue_cap
      $ cache_cap $ chunk $ read_timeout $ throttle $ no_fsync)

(* --- loadgen --- *)

(* "--mix clique:128:8,er:256:16" -> one query per entry; --distinct K
   clones each with seeds seed, seed+1, ..., seed+K-1 so the cache-hit
   ratio under load is controllable. *)
let parse_mix ~seed ~distinct spec =
  let parse_one item =
    match String.split_on_char ':' (String.trim item) with
    | [ family ] -> Ok (Serve.Query.default ~family ~n:128)
    | [ family; n ] | [ family; n; "" ] -> (
      match int_of_string_opt n with
      | Some n -> Ok (Serve.Query.default ~family ~n)
      | None -> Error (Printf.sprintf "bad node count in %S" item))
    | [ family; n; reps ] -> (
      match (int_of_string_opt n, int_of_string_opt reps) with
      | Some n, Some reps ->
        Ok { (Serve.Query.default ~family ~n) with Serve.Query.reps }
      | _ -> Error (Printf.sprintf "bad mix entry %S" item))
    | _ -> Error (Printf.sprintf "bad mix entry %S (want FAMILY:N[:REPS])" item)
  in
  let items = String.split_on_char ',' spec in
  List.fold_right
    (fun item acc ->
      match (acc, parse_one item) with
      | Error _, _ -> acc
      | _, Error e -> Error e
      | Ok acc, Ok q ->
        let clones =
          List.init distinct (fun d ->
              { q with Serve.Query.seed = seed + d })
        in
        Ok (clones @ acc))
    items (Ok [])

let loadgen_run () host port duration concurrency rate mix distinct seed
    stream binary json_out min_hits max_p99 =
  match parse_mix ~seed ~distinct mix with
  | Error e ->
    Printf.eprintf "rumor loadgen: %s\n" e;
    exit 2
  | Ok queries -> (
    (match
       List.find_opt
         (fun q -> not (Family.is_known q.Serve.Query.family))
         queries
     with
    | Some q ->
      Printf.eprintf "rumor loadgen: unknown family %S\n"
        q.Serve.Query.family;
      exit 2
    | None -> ());
    let cfg =
      {
        (Serve.Loadgen.default_config ~port ~queries) with
        Serve.Loadgen.host;
        duration_s = duration;
        concurrency;
        rate;
        stream;
        binary;
      }
    in
    let r = Serve.Loadgen.run cfg in
    if json_out then
      print_endline (Obs.Json.to_string (Serve.Loadgen.report_json r))
    else begin
      Printf.printf
        "loadgen: %d sent, %d ok (%d hits, %d misses, %d coalesced), %d \
         shed, %d errors, %d partials in %.2fs (%.1f req/s)\n"
        r.Serve.Loadgen.sent r.ok r.hits r.misses r.coalesced r.shed r.errors
        r.partials r.wall_s r.rps;
      if r.ok > 0 then
        Printf.printf
          "latency: mean %.4fs  p50 %.4fs  p90 %.4fs  p99 %.4fs  max %.4fs\n"
          r.mean_s r.p50_s r.p90_s r.p99_s r.max_s
    end;
    let failed = ref false in
    (match min_hits with
    | Some m when r.Serve.Loadgen.hits < m ->
      Printf.eprintf "FAIL: %d cache hits < required %d\n"
        r.Serve.Loadgen.hits m;
      failed := true
    | _ -> ());
    (match max_p99 with
    | Some bound
      when r.Serve.Loadgen.ok > 0 && r.Serve.Loadgen.p99_s > bound ->
      Printf.eprintf "FAIL: p99 %.4fs exceeds bound %.4fs\n"
        r.Serve.Loadgen.p99_s bound;
      failed := true
    | _ -> ());
    if !failed then exit 1)

let loadgen_cmd =
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"Server address.")
  in
  let port =
    Arg.(
      value & opt int 4123 & info [ "port" ] ~docv:"PORT" ~doc:"Server port.")
  in
  let duration =
    Arg.(
      value & opt duration_conv 5.
      & info [ "duration" ] ~docv:"DUR"
          ~doc:"Send phase length (e.g. 10s, 2m).")
  in
  let concurrency =
    Arg.(
      value & opt int 4
      & info [ "concurrency"; "c" ] ~docv:"N" ~doc:"Concurrent connections.")
  in
  let rate =
    Arg.(
      value & opt (some float) None
      & info [ "rate" ] ~docv:"R"
          ~doc:"Open-loop offered load in requests/second (paced sends \
                regardless of completions — this is what exposes queueing \
                and shedding).  Default: closed loop, one outstanding \
                request per connection.")
  in
  let mix =
    Arg.(
      value & opt string "clique:128:8"
      & info [ "mix" ] ~docv:"SPEC"
          ~doc:"Comma-separated query mix, each entry FAMILY:N[:REPS] \
                (e.g. 'clique:128:8,er:256:16'), cycled round-robin.")
  in
  let distinct =
    Arg.(
      value & opt int 1
      & info [ "distinct" ] ~docv:"K"
          ~doc:"Clone each mix entry $(docv) times with distinct seeds — \
                higher values mean more distinct cache keys (lower hit \
                ratio).")
  in
  let seed =
    Arg.(
      value & opt int 2020 & info [ "seed" ] ~docv:"SEED" ~doc:"Base seed.")
  in
  let stream =
    Arg.(
      value & flag
      & info [ "stream" ] ~doc:"Request streamed partial quantile updates.")
  in
  let binary =
    Arg.(
      value & flag
      & info [ "binary" ]
          ~doc:"Length-prefixed binary frames instead of JSONL.")
  in
  let json_out =
    Arg.(
      value & flag & info [ "json" ] ~doc:"Print the report as one JSON \
                                           document.")
  in
  let min_hits =
    Arg.(
      value & opt (some int) None
      & info [ "min-hits" ] ~docv:"N"
          ~doc:"Exit 1 unless at least $(docv) responses were cache hits \
                (CI gate).")
  in
  let max_p99 =
    Arg.(
      value & opt (some duration_conv) None
      & info [ "max-p99" ] ~docv:"DUR"
          ~doc:"Exit 1 when p99 latency exceeds $(docv) (CI gate).")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive a query mix against a running serve daemon (open or closed \
          loop) and report throughput, latency quantiles and the \
          hit/miss/coalesced/shed breakdown.")
    Term.(
      const loadgen_run $ obs_term $ host $ port $ duration $ concurrency
      $ rate $ mix $ distinct $ seed $ stream $ binary $ json_out $ min_hits
      $ max_p99)

(* --- main --- *)

let () =
  let info =
    Cmd.info "rumor" ~version:"1.0.0"
      ~doc:
        "Asynchronous rumor spreading in dynamic networks (Pourmiri & Mans, \
         PODC 2020): simulators, constructions and bounds."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            describe_cmd;
            simulate_cmd;
            bound_cmd;
            sweep_cmd;
            trace_cmd;
            faults_cmd;
            experiment_cmd;
            campaign_cmd;
            worker_cmd;
            netchaos_cmd;
            serve_cmd;
            loadgen_cmd;
            obs_cmd;
          ]))
