(** Rumor-exchange protocols.

    On a contact the {e caller} [u] has picked the {e callee} [v]:
    push sends the rumor [u -> v], pull asks for it [v -> u], push–pull
    does both (Definition 1 — the algorithm analysed throughout the
    paper is push–pull; push-only appears in the 2-push coupling of
    Lemma 4.2). *)

type t = Push | Pull | Push_pull

val caller_informs_callee : t -> bool
(** Does this protocol transmit from an informed caller to the
    callee? *)

val callee_informs_caller : t -> bool

val to_string : t -> string

val all : t list
