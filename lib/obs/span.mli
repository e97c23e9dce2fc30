(** Hierarchical timed spans.

    A span measures one named region of work; spans nest, and every
    finished span carries the nonzero {!Metrics} and {!Cost} deltas
    that the calling domain accumulated inside it (inclusive of
    children).  Work a concurrent domain does lands in that domain's
    own spans, which are roots there.  With the default
    null sink the overhead of an un-traced span is one load and one
    pointer comparison. *)

val with_ : name:string -> (unit -> 'a) -> 'a
(** [with_ ~name f] runs [f] inside a span.  The record is delivered
    to the active {!Sink} when [f] returns {e or raises} (the
    exception is re-raised). *)

val event : ?detail:string -> string -> unit
(** Emit a point event at the current depth (e.g. a recovery action).
    No-op under the null sink. *)

val active : unit -> bool
(** [true] iff spans are currently being recorded. *)
