(** Fast exact simulator of the asynchronous push–pull algorithm
    (Definition 1) on dynamic networks.

    Correctness rests on the same order-statistics identity the
    paper's analysis uses (Equation 1): each node's rate-1 clock with
    uniform neighbour marks thins into {e independent} Poisson contact
    processes of rate [1/d_u(tau)] per directed edge [(u -> v)].  Only
    contacts across the informed/uninformed cut change state, so the
    next state change arrives at rate

    [lambda(tau) = sum over cut edges {u,v} of (1/d_u + 1/d_v)]

    and the newly informed endpoint is that rate's categorical sample.
    Memorylessness lets the residual clock be re-drawn whenever
    [lambda] changes — at informing events and at integer graph
    switches.

    Cost: O(log n) per informing event via a Fenwick tree over
    per-node cut rates, O(deg) weight updates per informed node.  At a
    step boundary whose graph changed, a supplied {!Dynet.delta} is
    applied incrementally in O(Delta * maxdeg) — recomputing only the
    uninformed endpoints of touched edges and the uninformed
    neighbours of informed degree-changed nodes — with an O(m) full
    rebuild as the fallback (no delta, fault transition, or a delta so
    large that replaying it would cost more than rebuilding).  Every
    [rebuild_every] informing events (default 8192) all weights are
    recomputed from scratch to bound floating-point drift; the worst
    observed drift is exported as the [async_cut.weight_drift] gauge.
    The delta path recomputes touched weights with the rebuild's exact
    summation order, so the two paths produce the same informing
    sequence on the same seed (weights may differ by float
    canonicalisation residue of order 2^-52, never enough to flip a
    decision in practice — the differential suite pins outcome
    equality across all shipped families).

    The test suite checks this engine against the literal per-tick
    engine ({!Async_tick}) in distribution (means and two-sample KS).

    Two entry points: {!run} simulates to completion (or a horizon);
    the {!create}/{!next_event} stepping interface yields one event at
    a time so callers can interleave their own measurements, stopping
    rules or interventions.  [run] is implemented on the stepping
    interface and consumes the identical random-draw sequence. *)

open Rumor_rng
open Rumor_dynamic
open Rumor_faults

val pair_rate :
  Protocol.t -> du:float -> dv:float -> ru:float -> rv:float -> float
(** Directed informing rate carried by one cut pair: informed [u] of
    degree [du] and clock multiplier [ru], uninformed [v] of degree
    [dv] and multiplier [rv] — [ru/du + rv/dv] for push–pull, the
    respective single term for push or pull.  Exposed so closed-form
    consumers (the Rao–Blackwell control variate in {!Run}) share the
    engine's exact rate convention instead of restating it. *)

(** {1 One-shot driver} *)

val run :
  ?protocol:Protocol.t ->
  ?rate:float ->
  ?faults:Fault_plan.t ->
  ?use_deltas:bool ->
  ?rebuild_every:int ->
  ?horizon:float ->
  ?max_events:int ->
  ?stop:(unit -> bool) ->
  ?record_trace:bool ->
  Rng.t ->
  Dynet.t ->
  source:int ->
  Async_result.t
(** [run rng net ~source] simulates until every node is informed or
    [horizon] (default [1e7]) is reached.  [protocol] (default
    push–pull) selects which directed contact rates count toward the
    cut: push-only contributes [1/d_u] per informed neighbour [u],
    pull-only [1/d_v], push–pull their sum.  [rate] (default 1)
    scales every node clock uniformly (e.g. the paper's 2-push).

    [faults] (default {!Fault_plan.none}) injects message loss (by
    per-arrival rejection — distribution-identical to a rate rescale by
    the thinning identity of Eq. 1, but via a different mechanism, so
    the E13 self-check is non-trivial), node crash/recovery churn,
    per-node clock rates and partition windows.  With the trivial plan
    the engine consumes exactly the pre-fault random-draw sequence.

    [use_deltas] (default [true]) lets the engine apply the network's
    {!Dynet.delta}s incrementally; [false] forces the full O(m)
    rebuild on every changed step (the pre-delta behaviour, kept for
    differential testing and benchmarking).  [rebuild_every] (default
    8192) is the drift-bounding full-recompute period in informing
    events; it applies in both modes, so their weight states stay
    comparable.

    [max_events] is a watchdog: when the total processed work
    (informing events + lost messages + step boundaries) reaches it,
    the run degrades gracefully to a censored, incomplete result
    instead of spinning — e.g. under churn that never lets the last
    node recover.

    [stop] is a cooperative brake polled once per processed event: the
    first [true] censors the run exactly like an exhausted budget.  The
    supervised harness passes a wall-clock deadline check here; the
    closure must be cheap and must not touch any RNG.  Whether a run
    is stop-censored can depend on machine speed, but a censored
    outcome is always explicit — never a silently truncated sample.

    @raise Invalid_argument if [source] is out of range, [rate <= 0]
    or [max_events < 1]. *)

(** {1 Stepping interface} *)

type engine

type event =
  | Informed of int * float
      (** a node crossed the cut: [(node, time)] *)
  | Step_boundary of int * bool
      (** entered discrete step [t]; [true] iff the exposed graph
          changed *)
  | Complete of float  (** every node informed at the given time *)

val create :
  ?protocol:Protocol.t ->
  ?rate:float ->
  ?faults:Fault_plan.t ->
  ?use_deltas:bool ->
  ?rebuild_every:int ->
  Rng.t ->
  Dynet.t ->
  source:int ->
  engine
(** Fresh engine at time 0 with only [source] informed; the step-0
    graph is already exposed.
    @raise Invalid_argument as {!run}. *)

val next_event : engine -> event
(** Advance to the next event.  After [Complete] has been returned,
    further calls keep returning it.  On a permanently disconnected
    network this yields an unbounded stream of [Step_boundary] events —
    bound your loop by the step number (as {!run} bounds it by its
    horizon). *)

val informed_count : engine -> int

(** {1 Weight-state introspection} — exposed for the differential
    tests comparing the delta and rebuild paths. *)

val cut_weight : engine -> int -> float
(** Current Fenwick weight of a node (0 once informed). *)

val total_cut_rate : engine -> float
(** Current total informing rate [lambda]. *)

val current_graph : engine -> Rumor_graph.Graph.t
(** The graph exposed at the engine's current step. *)

val max_weight_drift : engine -> float
(** Worst drift observed so far at a periodic rebuild (0 before the
    first one). *)
