open Rumor_rng
open Rumor_dynamic
open Rumor_faults
module Obs = Rumor_obs.Metrics
module Pool = Rumor_par.Pool
module Adaptive = Rumor_stats.Adaptive
module Graph = Rumor_graph.Graph

(* Telemetry (lib/obs): replicate accounting for the Monte-Carlo
   runners and a spread-time histogram over completed replicates.
   Worker domains record through per-domain shards merged after the
   pool returns, so the hot path shares nothing and totals stay exact. *)
let m_replicates = Obs.counter "run.replicates"
let m_sweep_replicates = Obs.counter "run.sweep.replicates"
let m_sweep_finished = Obs.counter "run.sweep.finished"
let m_sweep_censored = Obs.counter "run.sweep.censored"
let m_sweep_failed = Obs.counter "run.sweep.failed"
let m_checkpoint_hits = Obs.counter "run.sweep.checkpoint_hits"
let m_checkpoint_writes = Obs.counter "run.sweep.checkpoint_writes"
let h_spread_time = Obs.histogram "run.spread_time"

(* Adaptive (sequential-stopping) sweep accounting: replicates consumed
   versus the fixed-count budget they replaced, split by why the sweep
   stopped.  The variance-reduction gauge carries the last control-
   variate ratio so a metrics snapshot can surface it. *)
let m_adaptive_sweeps = Obs.counter "run.adaptive.sweeps"
let m_adaptive_consumed = Obs.counter "run.adaptive.consumed"
let m_adaptive_saved = Obs.counter "run.adaptive.saved"
let m_adaptive_converged = Obs.counter "run.adaptive.converged"
let m_adaptive_budget = Obs.counter "run.adaptive.budget"
let g_adaptive_vr = Obs.gauge "run.adaptive.variance_ratio"

(* Owned by the lib/harness supervision layer (hence the name), but
   incremented here because this is where every replicate's engine
   call lives: a replicate stopped by its wall-clock deadline is
   recorded the moment it is censored, whichever runner ran it. *)
let m_deadline_censored = Obs.counter "harness.deadline_censored"

type engine = Cut | Tick

(* --- per-replicate wall-clock deadlines --- *)

(* Process-wide default, installed by the campaign harness (CLI
   [--deadline]) so that replicates buried inside experiment code —
   which never heard of deadlines — are still bounded.  Deadline
   censoring is inherently machine-dependent (unlike every other
   censoring source), so it is recorded explicitly and never silently
   folded into the sample. *)
let deadline_override : float option Atomic.t = Atomic.make None

let set_default_deadline = function
  | Some s when not (s > 0.) ->
    invalid_arg "Run.set_default_deadline: deadline must be positive"
  | v -> Atomic.set deadline_override v

let default_deadline () = Atomic.get deadline_override

(* Build one replicate's engine [stop] closure: absolute wall-clock
   expiry captured at replicate start.  Returns the checker used for
   attribution too (was this censoring caused by the deadline?). *)
let deadline_clock deadline_s =
  match deadline_s with
  | None -> None
  | Some s ->
    let expiry = Rumor_obs.Clock.now_s () +. s in
    Some (fun () -> Rumor_obs.Clock.now_s () >= expiry)

type mc = {
  times : float array;
  completed : int;
  reps : int;
}

type outcome = Checkpoint.outcome =
  | Finished of float
  | Censored of float
  | Failed of string

type sweep = {
  outcomes : outcome array;
  seeds : int64 array;
}

let source_of (net : Dynet.t) explicit =
  match (explicit, net.source_hint) with
  | Some s, _ -> s
  | None, Some s -> s
  | None, None -> 0

(* Split-seed determinism: one parent draw per sweep yields [base];
   replicate [r] then runs on [Rng.derive base r], a pure function of
   (base, r).  The replicate -> stream map is therefore independent of
   the domain count and of execution order, which is what makes every
   runner below bit-identical for any [jobs] — including under fault
   plans (faults draw from the replicate's own stream) and on
   checkpoint resume (missing indices re-derive the same streams). *)
let monte_carlo ?jobs ~reps rng one =
  let base = Rng.bits64 rng in
  let times = Array.make reps 0. in
  let ok = Array.make reps false in
  let jobs = Pool.resolve ?jobs reps in
  let shards = Array.init jobs (fun _ -> Obs.Shard.create ()) in
  Fun.protect
    (* Merge on the exception path too: observations made before a
       replicate raised are kept, never dropped. *)
    ~finally:(fun () -> Array.iter Obs.Shard.merge shards)
    (fun () ->
      ignore
        (Pool.run ~jobs reps (fun ~domain r ->
             let time, completed = one (Rng.derive base r) in
             times.(r) <- time;
             ok.(r) <- completed;
             if completed then
               Obs.Shard.observe shards.(domain) h_spread_time time)));
  Obs.add m_replicates reps;
  {
    times;
    completed = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 ok;
    reps;
  }

let async_spread_times ?jobs ?(reps = 30) ?horizon ?(engine = Cut) ?protocol
    ?rate ?faults ?source ?deadline_s rng net =
  let source = source_of net source in
  let deadline_s =
    match deadline_s with Some _ as d -> d | None -> default_deadline ()
  in
  monte_carlo ?jobs ~reps rng (fun child ->
      let stop = deadline_clock deadline_s in
      let result =
        match engine with
        | Cut ->
          Async_cut.run ?protocol ?rate ?faults ?horizon ?stop child net
            ~source
        | Tick ->
          Async_tick.run ?protocol ?rate ?faults ?horizon ?stop child net
            ~source
      in
      (* Attribution: censored AND the deadline clock has expired means
         the stop brake (not the horizon) ended this replicate.  The
         counter is atomic, not shard-batched — deadline censoring is
         nondeterministic anyway, so it is excluded from the
         byte-identical-snapshot contract. *)
      (match stop with
      | Some expired when (not result.Async_result.complete) && expired () ->
        Obs.incr m_deadline_censored
      | _ -> ());
      (result.Async_result.time, result.Async_result.complete))

(* --- hardened sweep --- *)

(* One hardened replicate, shared by the fixed-count and adaptive
   sweeps so their per-replicate behaviour cannot drift apart: run the
   engine on [child], classify the result as an outcome, and return
   the raw result too (the adaptive path replays its [informed_times]
   into a control variate). *)
let replicate_outcome ?protocol ?rate ?faults ?horizon ?max_events ~engine
    ~deadline_s ~source net child =
  let stop = deadline_clock deadline_s in
  match
    match engine with
    | Cut ->
      Async_cut.run ?protocol ?rate ?faults ?horizon ?max_events ?stop child
        net ~source
    | Tick ->
      Async_tick.run ?protocol ?rate ?faults ?horizon ?max_events ?stop child
        net ~source
  with
  | result ->
    let o =
      if result.Async_result.complete then Finished result.Async_result.time
      else begin
        (match stop with
        | Some expired when expired () -> Obs.incr m_deadline_censored
        | _ -> ());
        Censored result.Async_result.time
      end
    in
    (o, Some result)
  | exception e -> (Failed (Printexc.to_string e), None)

let tally_outcome shard o =
  Obs.Shard.incr shard m_sweep_replicates;
  match o with
  | Finished t ->
    Obs.Shard.incr shard m_sweep_finished;
    Obs.Shard.observe shard h_spread_time t
  | Censored _ -> Obs.Shard.incr shard m_sweep_censored
  | Failed _ -> Obs.Shard.incr shard m_sweep_failed

let async_spread_sweep ?jobs ?(reps = 30) ?horizon ?(engine = Cut) ?protocol
    ?rate ?faults ?source ?max_events ?checkpoint ?deadline_s rng net =
  if reps < 1 then invalid_arg "Run: need at least one repetition";
  let source = source_of net source in
  let deadline_s =
    match deadline_s with Some _ as d -> d | None -> default_deadline ()
  in
  let base = Rng.bits64 rng in
  let children = Array.init reps (Rng.derive base) in
  let seeds = Array.map Checkpoint.fingerprint children in
  let outcomes : outcome option array = Array.make reps None in
  (* Resume: replicate outcomes are keyed by the child RNG fingerprint
     — a pure function of (sweep seed, replicate index) — so the
     checkpoint records completed replicate {e indices}, not a
     sequential cursor: cached outcomes line up whatever [reps] or
     [jobs] the interrupted sweep used, and whichever scattered subset
     of replicates it had decided. *)
  (match checkpoint with
  | Some path ->
    let cached = Checkpoint.load path in
    Array.iteri
      (fun i seed ->
        match Hashtbl.find_opt cached seed with
        | Some o ->
          outcomes.(i) <- Some o;
          Obs.incr m_checkpoint_hits
        | None -> ())
      seeds
  | None -> ());
  let save () =
    match checkpoint with
    | Some path ->
      Checkpoint.save path ~seeds ~outcomes;
      Obs.incr m_checkpoint_writes
    | None -> ()
  in
  let jobs = Pool.resolve ?jobs reps in
  let shards = Array.init jobs (fun _ -> Obs.Shard.create ()) in
  (* Exception isolation: a raising replicate becomes a [Failed]
     outcome; the sweep itself never raises because of one. *)
  let one ~domain r =
    if Option.is_none outcomes.(r) then begin
      let shard = shards.(domain) in
      let o, _ =
        replicate_outcome ?protocol ?rate ?faults ?horizon ?max_events ~engine
          ~deadline_s ~source net children.(r)
      in
      tally_outcome shard o;
      outcomes.(r) <- Some o;
      (* Cheap incremental checkpointing (sequential mode only, where
         the decided set is a clean prefix of the chunk order) keeps
         the file current so an interrupted sweep loses at most the
         replicate in flight; parallel sweeps persist on the way out. *)
      if jobs = 1 && Option.is_some checkpoint && (r + 1) mod 32 = 0 then
        save ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      (* Every chunk has finished (or [Pool.run] never started): merge
         the shards before the final save so the persisted manifest
         counters match the outcomes, then checkpoint — including on
         the exception path, so even a fatally dying sweep keeps its
         decided replicates. *)
      Array.iter Obs.Shard.merge shards;
      save ())
    (fun () -> ignore (Pool.run ~jobs reps one));
  {
    outcomes =
      Array.map
        (function Some o -> o | None -> Failed "replicate never ran")
        outcomes;
    seeds;
  }

(* --- adaptive sequential stopping --- *)

(* Process-wide adaptive default, installed by the campaign/experiment
   CLI ([--adaptive-rel-width]) so that replicate loops buried inside
   experiment code pick up sequential stopping without any plumbing —
   the same pattern as [deadline_override] above.  [None] (the
   default) keeps every existing path byte-identical. *)
let adaptive_override : Adaptive.config option Atomic.t = Atomic.make None
let set_default_adaptive v = Atomic.set adaptive_override v
let default_adaptive () = Atomic.get adaptive_override

let rao_blackwell_time ?(protocol = Protocol.Push_pull) ?(rate = 1.) graph
    ~informed_times =
  let n = Graph.n graph in
  if Array.length informed_times <> n then
    invalid_arg "Run.rao_blackwell_time: informed_times length mismatch";
  if n <= 1 then 0.
  else if not (Array.for_all Float.is_finite informed_times) then Float.nan
  else begin
    (* Replay the informing order.  Ties (probability zero in
       continuous time, except the source at 0) break by node index so
       the replay is a pure function of its inputs. *)
    let order = Array.init n Fun.id in
    Array.sort
      (fun a b ->
        let c = Float.compare informed_times.(a) informed_times.(b) in
        if c <> 0 then c else compare a b)
      order;
    let informed = Array.make n false in
    let w = Array.make n 0. in
    let total = ref 0. in
    let inform u =
      informed.(u) <- true;
      total := !total -. w.(u);
      w.(u) <- 0.;
      let du = float_of_int (Graph.unsafe_degree graph u) in
      Graph.iter_neighbors
        (fun v ->
          if not informed.(v) then begin
            let dv = float_of_int (Graph.unsafe_degree graph v) in
            let dw =
              Async_cut.pair_rate protocol ~du ~dv ~ru:1. ~rv:1. *. rate
            in
            w.(v) <- w.(v) +. dw;
            total := !total +. dw
          end)
        graph u
    in
    inform order.(0);
    let sum = ref 0. in
    let ok = ref true in
    for i = 1 to n - 1 do
      (* Expected wait for the [i]-th informing event given the current
         informed set: 1/R(S).  A zero rate means the trajectory is
         impossible on this graph (the control graph does not match the
         simulated network) — poison the value rather than divide. *)
      if !total > 0. && w.(order.(i)) > 0. then
        sum := !sum +. (1. /. !total)
      else ok := false;
      inform order.(i)
    done;
    if !ok then !sum else Float.nan
  end

type adaptive = {
  sweep : sweep;
  consumed : int;
  used : int;
  mean : float;
  sd : float;
  half_width : float;
  target_width : float;
  level : float;
  reason : Adaptive.reason;
  batches : int;
  max_reps : int;
  control : Adaptive.cv option;
}

let async_spread_sweep_adaptive ?jobs ?horizon ?(engine = Cut) ?protocol ?rate
    ?faults ?source ?max_events ?checkpoint ?deadline_s ?control ~config rng
    net =
  (match (control, faults) with
  | Some _, Some _ ->
    invalid_arg
      "Run.async_spread_sweep_adaptive: control variates require a fault-free \
       sweep (faults break the closed-form rates)"
  | _ -> ());
  (match (control, checkpoint) with
  | Some _, Some _ ->
    invalid_arg
      "Run.async_spread_sweep_adaptive: control variates cannot resume from \
       a checkpoint (cached outcomes carry no trajectory to replay)"
  | _ -> ());
  (match control with
  | Some g when Graph.n g <> net.Dynet.n ->
    invalid_arg
      "Run.async_spread_sweep_adaptive: control graph order differs from the \
       network"
  | _ -> ());
  let source = source_of net source in
  let deadline_s =
    match deadline_s with Some _ as d -> d | None -> default_deadline ()
  in
  let max_reps = config.Adaptive.max_reps in
  (* Exactly the fixed sweep's seeding: one parent draw, index-derived
     children — so the replicate streams (hence outcomes, seeds and
     checkpoint keys) of an adaptive run are the literal prefix of a
     fixed-count run seeded identically, for any job count. *)
  let base = Rng.bits64 rng in
  let children = Array.init max_reps (Rng.derive base) in
  let seeds = Array.map Checkpoint.fingerprint children in
  let outcomes : outcome option array = Array.make max_reps None in
  let controls = Array.make max_reps Float.nan in
  (match checkpoint with
  | Some path ->
    let cached = Checkpoint.load path in
    Array.iteri
      (fun i seed ->
        match Hashtbl.find_opt cached seed with
        | Some o ->
          outcomes.(i) <- Some o;
          Obs.incr m_checkpoint_hits
        | None -> ())
      seeds
  | None -> ());
  let save () =
    match checkpoint with
    | Some path ->
      Checkpoint.save path ~seeds ~outcomes;
      Obs.incr m_checkpoint_writes
    | None -> ()
  in
  let jobs = Pool.resolve ?jobs max_reps in
  let shards = Array.init jobs (fun _ -> Obs.Shard.create ()) in
  let one ~domain r =
    if Option.is_none outcomes.(r) then begin
      let shard = shards.(domain) in
      let o, result =
        replicate_outcome ?protocol ?rate ?faults ?horizon ?max_events ~engine
          ~deadline_s ~source net children.(r)
      in
      (match (control, o, result) with
      | Some g, Finished t, Some res ->
        (* Martingale residual: observed time minus its conditional
           expectation given the informing order — exactly zero-mean on
           a static graph, whatever the protocol or rate. *)
        controls.(r) <-
          t
          -. rao_blackwell_time ?protocol ?rate g
               ~informed_times:res.Async_result.informed_times
      | _ -> ());
      tally_outcome shard o;
      outcomes.(r) <- Some o;
      if jobs = 1 && Option.is_some checkpoint && (r + 1) mod 32 = 0 then
        save ()
    end
  in
  let consumed = ref 0 in
  let batches = ref 0 in
  let stopped = ref None in
  (* Prefix statistic, recomputed in index order at every chunk
     boundary: a pure function of outcomes[0..consumed), themselves
     index-keyed — so the stopping decision is independent of [jobs]
     and of domain scheduling. *)
  let prefix_stats () =
    let ys = ref [] and cs = ref [] in
    for i = !consumed - 1 downto 0 do
      match outcomes.(i) with
      | Some (Finished t) ->
        ys := t :: !ys;
        cs := controls.(i) :: !cs
      | _ -> ()
    done;
    let values = Array.of_list !ys in
    let used = Array.length values in
    match control with
    | Some _ when used > 0 && List.for_all Float.is_finite !cs ->
      let cv =
        Adaptive.control_variate ~values ~controls:(Array.of_list !cs) ()
      in
      (used, cv.Adaptive.mean, cv.Adaptive.sd, Some cv)
    | _ ->
      let s = Rumor_stats.Stream.create () in
      Array.iter (Rumor_stats.Stream.add s) values;
      (used, Rumor_stats.Stream.mean s, Rumor_stats.Stream.stddev s, None)
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter Obs.Shard.merge shards;
      save ())
    (fun () ->
      while Option.is_none !stopped do
        let lo = !consumed in
        let hi = min max_reps (lo + config.Adaptive.chunk) in
        ignore (Pool.run ~jobs (hi - lo) (fun ~domain i -> one ~domain (lo + i)));
        consumed := hi;
        incr batches;
        let used, mean, sd, _ = prefix_stats () in
        match Adaptive.decide config ~consumed:hi ~used ~mean ~sd with
        | Adaptive.Continue -> ()
        | Adaptive.Stop reason -> stopped := Some reason
      done);
  let used, mean, sd, cv = prefix_stats () in
  let reason = Option.get !stopped in
  Obs.incr m_adaptive_sweeps;
  Obs.add m_adaptive_consumed !consumed;
  Obs.add m_adaptive_saved (max_reps - !consumed);
  (match reason with
  | Adaptive.Converged -> Obs.incr m_adaptive_converged
  | Adaptive.Budget -> Obs.incr m_adaptive_budget);
  (match cv with
  | Some c -> Obs.set g_adaptive_vr c.Adaptive.variance_ratio
  | None -> ());
  {
    sweep =
      {
        outcomes =
          Array.init !consumed (fun i ->
              match outcomes.(i) with
              | Some o -> o
              | None -> Failed "replicate never ran");
        seeds = Array.sub seeds 0 !consumed;
      };
    consumed = !consumed;
    used;
    mean;
    sd;
    half_width = Adaptive.half_width ~level:config.Adaptive.level ~count:used ~sd;
    target_width = Adaptive.target config ~mean;
    level = config.Adaptive.level;
    reason;
    batches = !batches;
    max_reps;
    control = cv;
  }

let sweep_counts s =
  Array.fold_left
    (fun (f, c, x) -> function
      | Finished _ -> (f + 1, c, x)
      | Censored _ -> (f, c + 1, x)
      | Failed _ -> (f, c, x + 1))
    (0, 0, 0) s.outcomes

let usable_times s =
  Array.of_seq
    (Seq.filter_map
       (function Finished t -> Some t | Censored _ | Failed _ -> None)
       (Array.to_seq s.outcomes))

let quantiles_of_sweep s points =
  let times = usable_times s in
  if Array.length times = 0 then [||]
  else Array.of_list (Rumor_stats.Quantile.quantiles times points)

let first_failure s =
  Array.fold_left
    (fun acc o ->
      match (acc, o) with None, Failed m -> Some m | _ -> acc)
    None s.outcomes

let mc_of_sweep s =
  let times =
    Array.of_seq
      (Seq.filter_map
         (function Finished t | Censored t -> Some t | Failed _ -> None)
         (Array.to_seq s.outcomes))
  in
  let completed, _, _ = sweep_counts s in
  { times; completed; reps = Array.length times }

let sync_spread_rounds ?jobs ?(reps = 30) ?max_rounds ?protocol ?faults ?source
    rng net =
  let source = source_of net source in
  monte_carlo ?jobs ~reps rng (fun child ->
      let result = Sync.run ?protocol ?max_rounds ?faults child net ~source in
      (float_of_int result.Sync.rounds, result.Sync.complete))

let flooding_rounds ?jobs ?(reps = 30) ?max_rounds ?source rng net =
  let source = source_of net source in
  monte_carlo ?jobs ~reps rng (fun child ->
      let result = Flooding.run ?max_rounds child net ~source in
      (float_of_int result.Flooding.rounds, result.Flooding.complete))
