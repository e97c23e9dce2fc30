(** Machine-readable account of recovery actions.

    A {!recorder} accumulates {!event}s as retry/fallback policies
    fire; the finished report (just the event list, oldest first) is
    returned with reduction results so callers can distinguish clean,
    recovered, and degraded runs.

    Action strings are "verb" or "verb:detail": ["fallback:<rung>"],
    ["nudge:<s0>"], ["halve-step"], ["degrade:<what>"],
    ["accept-fallback"], ["exhausted"]. *)

type event = { error : Error.t; action : string }

type t = event list

type recorder

val recorder : unit -> recorder

val record : recorder -> action:string -> Error.t -> unit

val record_opt : recorder option -> action:string -> Error.t -> unit

val splice : recorder -> recorder -> unit
(** [splice parent child] moves (appends) [child]'s events into
    [parent] as if they had just been recorded there, {e without}
    re-emitting the [Obs] bridge events ({!record} already emitted
    them when the child recorded).  Splicing children in the order
    they ran reproduces the report that recording into [parent]
    directly would have built. *)

val events : recorder -> t
(** Events recorded so far, oldest first. *)

val mark : recorder -> int
(** A position usable with {!since}. *)

val since : recorder -> int -> t
(** [since r m] is the events recorded after {!mark} returned [m]. *)

val empty : t

val is_empty : t -> bool

val count : t -> int

val degraded : t -> bool
(** True when any event's action is a ["degrade:*"]. *)

val to_string : t -> string
(** One event per line. *)
