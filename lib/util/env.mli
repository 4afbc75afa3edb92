(** Environment-variable parsing: [RUMOR_JOBS] (the pool's default job
    count) and [RUMOR_OBS_OUT] (the CLI's artifact directory).

    Unset (or empty) variables fall back silently; {e set but
    malformed} values are never swallowed — each prints one warning to
    stderr naming the variable, the rejected value and the fallback,
    then uses the default. *)

val string : string -> string option
(** [None] when unset or empty. *)

val int : default:int -> string -> int

val parse_duration : string -> (float, string) result
(** Parse a human-friendly duration into seconds: a positive number
    with an optional unit suffix — [ms] (milliseconds), [s] (seconds,
    also the bare-number default), [m] (minutes), [h] (hours).
    ["500ms"] is [Ok 0.5]; ["10s"], ["10"] are [Ok 10.]; zero,
    negative, non-finite and malformed inputs are [Error _] with a
    message naming the rejected string.  Shared by every CLI duration
    flag ([--heartbeat-timeout], [--chaos-kill-every], the serve and
    loadgen timeouts). *)
