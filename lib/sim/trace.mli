(** Analysis of informed-count trajectories.

    The engines (with [~record_trace:true]) emit [(time, count)] pairs;
    this module extracts the quantities the paper's proof of
    Theorem 1.1 reasons about: the durations of the doubling phases of
    [min(I_tau, U_tau)] (Lemma 3.1 bounds each phase, and there are
    [O(log n)] of them), and times to reach fixed informed
    fractions. *)

type t = (float * int) array
(** A trajectory as produced by the engines: strictly increasing in
    count, non-decreasing in time, starting at the source's
    [(0., 1)]. *)

val per_step_progress : t -> int array
(** Informed-count deltas bucketed by dynamic step: entry [s] is how
    many nodes were informed during [[s, s+1)).  Length is the number
    of steps the trajectory spans; the initial point contributes
    nothing (the source is a baseline, not progress).  Summing a
    prefix and overlaying the per-step [Phi rho] accounting of
    Theorem 1.1 reproduces the paper's [sum Phi rho >= C log n]
    stopping rule on measured data (exported through the E1 JSONL
    rows when an observability sink is configured). *)

val time_to_fraction : t -> n:int -> float -> float option
(** [time_to_fraction tr ~n frac] is the first time the informed count
    reaches [ceil(frac * n)].
    @raise Invalid_argument if [frac] is outside [(0, 1]]. *)

val doubling_phases : t -> n:int -> float list
(** Durations of the Lemma 3.1 phases: starting from [I = 1], each
    phase ends when [min(I, U)] has grown (first phase: informed
    count multiplied by 3/2; second half: uninformed count halved),
    mirroring the proof's two-phase schedule.  Returns the list of
    phase durations in order; their number is [O(log n)] on a complete
    run. *)

val phase_count_bound : n:int -> int
(** The proof's phase budget [log_{3/2}(n/2) + log_2 n + 2], the
    a-priori ceiling on [List.length (doubling_phases tr ~n)]. *)
