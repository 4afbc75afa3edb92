(** Fault models injected into the simulation engines.

    The paper's whole analysis rests on the Poisson-thinning identity
    (Equation 1): each directed contact [u -> v] is an independent
    Poisson process of rate [1/d_u].  Independent per-message loss with
    probability [p] therefore thins every contact process to rate
    [(1-p)/d_u] — i.e. message loss is {e exactly} a uniform clock-rate
    rescale by [(1-p)].  That distribution-level invariant is what the
    fault machinery is validated against (experiment E13 and
    [test/test_faults.ml]): a run under injected loss must agree in
    distribution with a fault-free run at rate [(1-p)], on both the
    cut-rate and the literal tick engine.

    A {!t} is a pure description; {!init} instantiates the per-run
    mutable {!state} the engines carry.  Four fault classes compose:

    - {b message loss}: every rumor-carrying message is dropped
      independently with probability [loss].
    - {b node churn}: a per-node two-state Markov chain updated at
      every discrete step boundary; a crashed node is inert — it stops
      ticking, answers no pulls, and receives nothing — but keeps the
      rumor if it already has it.
    - {b clock heterogeneity}: node [u] ticks at rate
      [rate * node_rate u] instead of a uniform [rate].
    - {b partition windows}: during steps [from_step <= t < until_step]
      every contact between the two sides of [side] is blocked.

    A trivial plan ({!none}) makes the engines consume exactly the same
    random-draw sequence as the fault-free code path, so existing
    seeded results are unchanged. *)

open Rumor_rng

type churn = {
  crash : float;  (** P(alive -> crashed) per step boundary *)
  recover : float;  (** P(crashed -> alive) per step boundary *)
}

type partition = {
  from_step : int;  (** first step of the window (inclusive) *)
  until_step : int;  (** first step after the window *)
  side : int -> bool;  (** which side of the cut each node is on *)
}

type t = {
  loss : float;  (** per-message loss probability, in [[0, 1)] *)
  node_rate : (int -> float) option;
      (** per-node clock-rate multiplier (must be positive and finite);
          [None] = homogeneous rate 1.  Ignored by the round-synchronous
          engine, which has no clocks. *)
  churn : churn option;
  partitions : partition list;
}

val none : t
(** No faults: engines behave (and draw) exactly as without a plan. *)

val make :
  ?loss:float ->
  ?node_rate:(int -> float) ->
  ?churn:churn ->
  ?partitions:partition list ->
  unit ->
  t
(** Validating constructor.
    @raise Invalid_argument if [loss] is outside [[0, 1)], a churn
    probability is outside [[0, 1]], or a partition window is empty. *)

val message_loss : float -> t
(** [message_loss p] = [make ~loss:p ()]. *)

val node_churn : crash:float -> recover:float -> t

val availability : churn -> float
(** Stationary probability that a node is alive:
    [recover / (crash + recover)] (1 if both are 0). *)

(** {1 Engine runtime state}

    The engines own one {!state} per run.  With a trivial plan no
    operation below consumes randomness, so fault-free runs stay
    bit-identical to the pre-fault code path. *)

type state

val init : t -> n:int -> state
(** Fresh state at step 0: every node alive, step-0 partition windows
    active.
    @raise Invalid_argument if some node rate is non-positive or
    non-finite. *)

val advance : state -> Rng.t -> step:int -> bool
(** Advance the fault state across the boundary into discrete [step]
    (engines call it with [step >= 1], once per boundary).  Flips each
    node's churn chain (exactly one Bernoulli draw per node per call
    when churn is configured, none otherwise) and refreshes the active
    partition windows.  Returns [true] iff anything observable changed
    — the cut engine must rebuild its rates then. *)

val alive : state -> int -> bool

val allows : state -> int -> int -> bool
(** [alive u && alive v && not (blocked u v)] — may this pair exchange
    messages right now? *)

val restricts : state -> bool
(** Can {!allows} be [false] for some pair right now?  [false] when the
    plan has no churn and no active partition window: the engines test
    this once per neighbour loop and skip {!allows} inside it. *)

val node_rates : state -> float array option
(** The cached per-node rate array, [None] when rates are homogeneous
    (lets the tick engine keep its uniform sampler). *)

val deliver : state -> Rng.t -> bool
(** One message-delivery trial: [true] with probability [1 - loss].
    Draws nothing when [loss = 0]. *)
