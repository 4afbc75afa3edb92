open Rumor_util
open Rumor_rng
open Rumor_graph
open Rumor_dynamic
open Rumor_faults
module Obs = Rumor_obs.Metrics

(* Telemetry (lib/obs): per-run tallies live in plain engine fields on
   the hot path and are flushed into the process-wide registry once
   per [run] — a disabled registry costs one atomic-bool load per
   run. *)
let m_runs = Obs.counter "async_cut.runs"
let m_completed = Obs.counter "async_cut.completed"
let m_censored = Obs.counter "async_cut.censored"
let m_events = Obs.counter "async_cut.events"
let m_lost = Obs.counter "async_cut.lost"
let m_wasted_draws = Obs.counter "async_cut.wasted_draws"
let m_steps = Obs.counter "async_cut.steps"
let m_rebuilds = Obs.counter "async_cut.weight_rebuilds"
let m_fenwick_ops = Obs.counter "async_cut.fenwick_ops"
let m_delta_steps = Obs.counter "async_cut.delta_steps"
let m_delta_updates = Obs.counter "async_cut.delta_node_updates"

(* Worst observed |Fenwick total - freshly recomputed total| at a
   periodic rebuild: the floating-point drift the incremental updates
   accumulated before being canonicalised away. *)
let g_drift = Obs.gauge "async_cut.weight_drift"

(* Cut rate carried by an uninformed node v, per protocol:
   push-pull:  sum over informed neighbours u of (r_u/d_u + r_v/d_v)
   push:       sum over informed neighbours u of  r_u/d_u
   pull:       sum over informed neighbours u of  r_v/d_v
   where r_u is the node's fault-plan clock multiplier (1 without
   faults).  The global clock rate multiplies uniformly.  Crashed and
   partition-separated pairs contribute nothing; message loss is
   injected downstream by rejection (see next_event), which keeps the
   cut weights loss-free — the thinning identity makes both views
   distribution-identical, and rejection exercises a genuinely
   different code path than the rate-rescale it must agree with. *)
let[@inline] pair_rate protocol ~du ~dv ~ru ~rv =
  match protocol with
  | Protocol.Push_pull -> (ru /. du) +. (rv /. dv)
  | Protocol.Push -> ru /. du
  | Protocol.Pull -> rv /. dv

type event =
  | Informed of int * float
  | Step_boundary of int * bool
  | Complete of float

type engine = {
  rng : Rng.t;
  instance : Dynet.instance;
  protocol : Protocol.t;
  rate : float;
  faults : Fault_plan.state;
  use_deltas : bool;
  rebuild_every : int;
  informed : Bitset.t;
  fenwick : Fenwick.t;
  (* [touch_buf]/[scratch] carry (slot, value) batches into
     [Fenwick.add_many]/[set_many]; [scratch] is also the per-node
     weight array of a rebuild.  Both are dead between calls. *)
  scratch : float array;
  times : float array;
  touch_mark : Bytes.t;
  touch_buf : int array;
  mutable graph : Graph.t;
  mutable tau : float;
  mutable step : int;
  mutable lost : int;
  mutable informs_since_rebuild : int;
  mutable max_drift : float;
  (* telemetry tallies, flushed to Rumor_obs.Metrics by [run] *)
  mutable rebuilds : int;
  mutable fenwick_ops : int;
  mutable wasted_draws : int;
  mutable delta_steps : int;
  mutable delta_updates : int;
}

(* The engine hot path allocates nothing per neighbour.  Both
   neighbour loops below ([node_weight], [inform_node]) walk the CSR
   arrays directly, keep floats in unboxed locals, read clock rates
   from the plan's array and hand Fenwick updates over in one batch:
   no closure, no boxed float argument or result.  Fault checks are
   hoisted: [Fault_plan.allows] is consulted only while the plan
   restricts some pair. *)

let[@inline] node_rate rates v =
  match rates with None -> 1.0 | Some r -> r.(v)

(* Cut weight of one slot, exactly as the full rebuild computes it
   (same neighbour order, same accumulation order), so a node touched
   by [apply_delta] carries the bit-identical weight a rebuild would
   have given it.  Inlined into its three callers so the result stays
   unboxed. *)
let[@inline] node_weight e graph v =
  if Bitset.mem e.informed v || not (Fault_plan.alive e.faults v) then 0.
  else begin
    let off = Graph.csr_offsets graph and nbr = Graph.csr_neighbors graph in
    let restricted = Fault_plan.restricts e.faults in
    let rates = Fault_plan.node_rates e.faults in
    let dv = float_of_int (Graph.unsafe_degree graph v) in
    let rv = node_rate rates v in
    let w = ref 0. in
    for k = Array.unsafe_get off v to Array.unsafe_get off (v + 1) - 1 do
      let u = Array.unsafe_get nbr k in
      if
        Bitset.mem e.informed u
        && ((not restricted) || Fault_plan.allows e.faults u v)
      then
        w :=
          !w
          +. pair_rate e.protocol
               ~du:(float_of_int (Graph.unsafe_degree graph u))
               ~ru:(node_rate rates u) ~dv ~rv
    done;
    !w *. e.rate
  end

let rebuild_weights e =
  let graph = e.graph in
  let n = Graph.n graph in
  e.rebuilds <- e.rebuilds + 1;
  e.fenwick_ops <- e.fenwick_ops + n;
  for v = 0 to n - 1 do
    e.scratch.(v) <- node_weight e graph v
  done;
  Fenwick.fill_from e.fenwick e.scratch;
  e.informs_since_rebuild <- 0

(* Same as [rebuild_weights], on an unchanged graph: measure how far
   the incrementally maintained weights drifted from a from-scratch
   recomputation before canonicalising them away.  Runs every
   [rebuild_every] informs in both the delta and the rebuild engine
   mode, so the two modes stay draw-for-draw comparable. *)
let periodic_rebuild e =
  let graph = e.graph in
  let n = Graph.n graph in
  let sum = ref 0. in
  for v = 0 to n - 1 do
    let w = node_weight e graph v in
    e.scratch.(v) <- w;
    sum := !sum +. w
  done;
  let drift = Float.abs (Fenwick.total e.fenwick -. !sum) in
  if drift > e.max_drift then e.max_drift <- drift;
  e.rebuilds <- e.rebuilds + 1;
  e.fenwick_ops <- e.fenwick_ops + n;
  Fenwick.fill_from e.fenwick e.scratch;
  e.informs_since_rebuild <- 0

(* O(Delta * maxdeg) incremental re-weighting after an edge delta.  The
   recompute set is exact: an uninformed node's weight depends on its
   own degree and incident edges (it is then an endpoint of a touched
   edge) and on the degrees of its informed neighbours (it is then a
   new-graph neighbour of an informed degree-changed node).  Informed
   slots are zero and stay zero. *)
let apply_delta e (d : Dynet.delta) =
  let graph = e.graph and informed = e.informed in
  let nt = ref 0 in
  let consider v =
    if
      Bytes.unsafe_get e.touch_mark v = '\000' && not (Bitset.mem informed v)
    then begin
      Bytes.unsafe_set e.touch_mark v '\001';
      e.touch_buf.(!nt) <- v;
      incr nt
    end
  in
  let consider_edge (u, v) =
    consider u;
    consider v
  in
  Array.iter consider_edge d.Dynet.added;
  Array.iter consider_edge d.Dynet.removed;
  Array.iter
    (fun w ->
      if Bitset.mem informed w then Graph.iter_neighbors consider graph w)
    d.Dynet.degree_changed;
  for i = 0 to !nt - 1 do
    let v = e.touch_buf.(i) in
    Bytes.unsafe_set e.touch_mark v '\000';
    e.scratch.(i) <- node_weight e graph v
  done;
  Fenwick.set_many e.fenwick e.touch_buf e.scratch !nt;
  e.fenwick_ops <- e.fenwick_ops + !nt;
  e.delta_updates <- e.delta_updates + !nt;
  e.delta_steps <- e.delta_steps + 1

(* Estimated delta-apply cost versus the O(n + 2m) rebuild; families
   like [alternating] legitimately ship deltas close to the full edge
   set, where replaying them would be slower than rebuilding. *)
let delta_affordable e (d : Dynet.delta) =
  let graph = e.graph in
  let budget = Graph.n graph + Graph.volume graph in
  let size = Dynet.delta_size d in
  (* The estimate starts at 2 * size, so this bound alone already
     decides the heavy deltas (every step of a fast-churning chain)
     without walking [degree_changed]. *)
  if 4 * size >= budget then false
  else begin
    let est = ref (2 * size) in
    Array.iter
      (fun w ->
        if Bitset.mem e.informed w then
          est := !est + Graph.unsafe_degree graph w)
      d.Dynet.degree_changed;
    2 * !est < budget
  end

let inform_node e v =
  ignore (Bitset.add e.informed v);
  e.times.(v) <- e.tau;
  e.informs_since_rebuild <- e.informs_since_rebuild + 1;
  Fenwick.set e.fenwick v 0.;
  e.fenwick_ops <- e.fenwick_ops + 1;
  let graph = e.graph in
  let off = Graph.csr_offsets graph and nbr = Graph.csr_neighbors graph in
  let restricted = Fault_plan.restricts e.faults in
  let rates = Fault_plan.node_rates e.faults in
  let dv = float_of_int (Graph.unsafe_degree graph v) in
  let rv = node_rate rates v in
  let k = ref 0 in
  for i = Array.unsafe_get off v to Array.unsafe_get off (v + 1) - 1 do
    let x = Array.unsafe_get nbr i in
    if
      (not (Bitset.mem e.informed x))
      && ((not restricted) || Fault_plan.allows e.faults v x)
    then begin
      e.touch_buf.(!k) <- x;
      e.scratch.(!k) <-
        e.rate
        *. pair_rate e.protocol ~du:dv ~ru:rv
             ~dv:(float_of_int (Graph.unsafe_degree graph x))
             ~rv:(node_rate rates x);
      incr k
    end
  done;
  e.fenwick_ops <- e.fenwick_ops + !k;
  Fenwick.add_many e.fenwick e.touch_buf e.scratch !k

let create ?(protocol = Protocol.Push_pull) ?(rate = 1.0)
    ?(faults = Fault_plan.none) ?(use_deltas = true) ?(rebuild_every = 8192)
    rng (net : Dynet.t) ~source =
  if rate <= 0. then invalid_arg "Async_cut.run: rate must be positive";
  if rebuild_every < 1 then
    invalid_arg "Async_cut.run: rebuild_every must be positive";
  let n = net.n in
  if source < 0 || source >= n then
    invalid_arg (Printf.sprintf "Async_cut.run: source %d out of range" source);
  let faults = Fault_plan.init faults ~n in
  let instance = net.spawn rng in
  let informed = Bitset.create n in
  ignore (Bitset.add informed source);
  let times = Array.make n Float.nan in
  times.(source) <- 0.;
  let info = Dynet.next instance ~informed in
  let e =
    {
      rng;
      instance;
      protocol;
      rate;
      faults;
      use_deltas;
      rebuild_every;
      informed;
      fenwick = Fenwick.create n;
      scratch = Array.make n 0.;
      times;
      touch_mark = Bytes.make n '\000';
      touch_buf = Array.make (max 1 n) 0;
      graph = info.Dynet.graph;
      tau = 0.;
      step = 0;
      lost = 0;
      informs_since_rebuild = 0;
      max_drift = 0.;
      rebuilds = 0;
      fenwick_ops = 0;
      wasted_draws = 0;
      delta_steps = 0;
      delta_updates = 0;
    }
  in
  rebuild_weights e;
  e

let informed_count e = Bitset.cardinal e.informed

let cut_weight e v = Fenwick.get e.fenwick v

let total_cut_rate e = Fenwick.total e.fenwick

let current_graph e = e.graph

let max_weight_drift e = e.max_drift

let advance_step e =
  e.tau <- float_of_int (e.step + 1);
  e.step <- e.step + 1;
  let next_info = Dynet.next e.instance ~informed:e.informed in
  e.graph <- next_info.Dynet.graph;
  let faults_changed = Fault_plan.advance e.faults e.rng ~step:e.step in
  (* A fault transition can re-weight arbitrary nodes (aliveness, clock
     rates, partitions), which an edge delta does not describe: always
     rebuild there. *)
  if faults_changed then rebuild_weights e
  else if next_info.Dynet.changed then begin
    match next_info.Dynet.delta with
    | Some d when e.use_deltas && delta_affordable e d -> apply_delta e d
    | _ -> rebuild_weights e
  end;
  Step_boundary (e.step, next_info.Dynet.changed)

let rec next_event e =
  if Bitset.is_full e.informed then Complete e.tau
  else begin
    let boundary = float_of_int (e.step + 1) in
    let lambda = Fenwick.total e.fenwick in
    if lambda <= 1e-300 then advance_step e
    else begin
      let delta = -.log (Rng.float_pos e.rng) /. lambda in
      if e.tau +. delta >= boundary then advance_step e
      else begin
        e.tau <- e.tau +. delta;
        let v = Fenwick.find e.fenwick (Rng.float e.rng *. lambda) in
        (* Float cancellation can leave a stale zero-weight slot at a
           sampling boundary; such a draw has probability ~0 and is
           retried. *)
        if Bitset.mem e.informed v then begin
          e.wasted_draws <- e.wasted_draws + 1;
          next_event e
        end
        else if not (Fault_plan.deliver e.faults e.rng) then begin
          (* The contact happened but its message was lost: time has
             advanced, no state changed — the rejection half of the
             thinning identity. *)
          e.lost <- e.lost + 1;
          next_event e
        end
        else begin
          inform_node e v;
          (* Bound floating-point drift: canonicalise all weights every
             [rebuild_every] informs (consumes no randomness). *)
          if e.informs_since_rebuild >= e.rebuild_every then
            periodic_rebuild e;
          Informed (v, e.tau)
        end
      end
    end
  end

let run ?protocol ?rate ?faults ?use_deltas ?rebuild_every ?(horizon = 1e7)
    ?max_events ?stop ?(record_trace = false) rng (net : Dynet.t) ~source =
  let should_stop =
    match stop with None -> (fun () -> false) | Some f -> f
  in
  let budget =
    match max_events with
    | None -> max_int
    | Some b ->
      if b < 1 then invalid_arg "Async_cut.run: max_events must be positive";
      b
  in
  let e = create ?protocol ?rate ?faults ?use_deltas ?rebuild_every rng net ~source in
  let trace = ref [] in
  let record tau =
    if record_trace then trace := (tau, Bitset.cardinal e.informed) :: !trace
  in
  record 0.;
  let events = ref 0 in
  let work = ref 0 in
  let finished = ref false in
  let out_of_time = ref false in
  while (not !finished) && not !out_of_time do
    (match next_event e with
    | Complete _ -> finished := true
    | Step_boundary (_, _) -> if e.tau >= horizon then out_of_time := true
    | Informed (_, tau) ->
      incr events;
      record tau);
    incr work;
    (* Watchdog: bound the total work (informing events, lost messages
       and step boundaries) and degrade to a censored result.  [stop]
       is the supervisor's cooperative brake (wall-clock deadlines):
       checked once per event, it consumes no randomness and censors
       the run exactly like an exhausted budget. *)
    if (not !finished) && (!work + e.lost >= budget || should_stop ()) then
      out_of_time := true
  done;
  if Obs.enabled () then begin
    Obs.incr m_runs;
    Obs.incr (if !finished then m_completed else m_censored);
    Obs.add m_events !events;
    Obs.add m_lost e.lost;
    Obs.add m_wasted_draws e.wasted_draws;
    Obs.add m_steps (e.step + 1);
    Obs.add m_rebuilds e.rebuilds;
    Obs.add m_fenwick_ops e.fenwick_ops;
    Obs.add m_delta_steps e.delta_steps;
    Obs.add m_delta_updates e.delta_updates;
    if e.max_drift > Obs.gauge_value g_drift then Obs.set g_drift e.max_drift
  end;
  {
    Async_result.time = e.tau;
    complete = !finished;
    informed = e.informed;
    events = !events;
    steps = e.step + 1;
    lost = e.lost;
    trace = Array.of_list (List.rev !trace);
    informed_times = e.times;
  }
