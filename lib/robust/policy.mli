(** Retry/fallback policy engine: attempt budgets plus two engines —
    the deterministic shift-nudge sequence for near-singular shifted
    solves, and the walk over those candidates. *)

type t = {
  max_retries : int;  (** extra attempts after the first *)
  nudge_eps : float;  (** relative size of the first shift nudge *)
  nudge_base : float;  (** absolute nudge scale used when [s0 = 0] *)
  tikhonov_mu : float;  (** relative Tikhonov regularization strength *)
}

val default : unit -> t
(** The standard policy: four retries, relative nudges of [1e-4],
    Tikhonov strength [1e-8]. *)

val none : t
(** No retries, no regularization — the uninstrumented baseline used
    for overhead measurement. *)

val nudges : t -> float -> float list
(** [nudges t s0] is the deterministic expansion-point candidate
    sequence [s0; s0 (1 + eps); s0 (1 + 2 eps); s0 (1 + 4 eps); ...]
    (absolute steps of [nudge_base * eps * 2^j] when [s0 = 0]),
    [1 + max_retries] entries in total. *)

(** What one expansion-point candidate produced: a value with no
    recovery events, a value reached through recovery (with the last
    recovered error), or a failure. *)
type 'a outcome = Clean of 'a | Recovered of 'a * Error.t | Failed of Error.t

val outcome_of_events : 'a -> Report.t -> 'a outcome
(** [outcome_of_events v events] is [Clean v] when [events] (the
    recovery events recorded while producing [v], oldest first) is
    empty, else [Recovered (v, e)] with [e] the newest event's error. *)

val walk_nudges :
  recorder:Report.recorder ->
  classify:(exn -> Error.t option) ->
  (float * (unit -> 'a outcome)) list ->
  (float * 'a, int * Error.t option) result
(** Walk [(s0, attempt)] candidates (usually one per {!nudges} entry)
    in order. The first [Clean] candidate wins and nothing is recorded
    for it. A [Recovered] candidate is kept as the fallback (the first
    one) and the walk goes on; it is accepted, recording
    ["accept-fallback"], only when no candidate is clean. Each
    [Failed] candidate records ["nudge:<next s0>"] while a next
    candidate remains. An exception from an attempt becomes [Failed]
    through [classify]; unrecognized exceptions propagate.

    Returns [Ok (s0, v)] for the accepted candidate, or
    [Error (attempts, last)] when every candidate failed ([last] is
    the final failure, [None] for an empty list). *)
