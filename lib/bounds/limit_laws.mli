(** The exact mean spread time of asynchronous push–pull on the
    complete graph — the closed form that the benchmark's clique gate
    checks the simulators against.

    On [K_n], asynchronous push–pull (unit-rate clocks, uniform
    neighbour choice) is a pure-jump Markov chain in the informed-set
    size: with [k] informed the time to the next informing event is
    exactly [Exp(2 k (n-k) / (n-1))], because each of the [k (n-k)]
    informed/uninformed pairs fires an informing call at rate
    [1/(n-1) + 1/(n-1)].  Summing expectations gives the exact mean
    [(n-1) H_{n-1} / n]. *)

val clique_mean : int -> float
(** Exact expected spread time on [K_n]: [(n-1) H_{n-1} / n].
    @raise Invalid_argument if [n < 1]. *)
