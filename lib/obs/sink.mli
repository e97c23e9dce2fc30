(** Pluggable trace sinks.

    A sink consumes finished {!Span} records and point events.  The
    process holds exactly one current sink; the default {!null} sink
    makes tracing a no-op (physical-equality fast path in [Span]).

    Environment knobs, read once at module initialization (before any
    domain can be spawned, so the install is race-free):
    - [VMOR_TRACE=<file.jsonl>] — install a {!jsonl_file} sink;
    - [VMOR_METRICS=1|true|on|yes|stderr] — print the metrics table to
      stderr at process exit, as the CLI's [--metrics] does; any other
      value leaves it off.

    Explicit {!set} (from CLI flags or tests) overrides the
    environment. *)

type span_record = {
  name : string;           (** span name, e.g. ["atmor.reduce"] *)
  depth : int;             (** nesting depth, 0 = top level *)
  start : float;           (** {!Clock.now} at span entry *)
  dur : float;             (** elapsed seconds *)
  counters : (string * int) list;
      (** nonzero counter deltas the span's domain accumulated inside
          the span, inclusive of child spans *)
  cost : (string * int) list;
      (** nonzero {!Cost} deltas (nominal flops/bytes) the span's
          domain accumulated inside the span, inclusive of child spans;
          rendered as flat [cost.*] JSON members *)
  prof : Prof.t option;
      (** GC/allocation deltas over the span (inclusive of children),
          rendered as flat [prof.*] JSON members; [None] for a parsed
          record that predates prof capture *)
}

type event_record = {
  name : string;
  depth : int;
  time : float;
  detail : string;
}

type t = {
  on_span : span_record -> unit;
  on_event : event_record -> unit;
  flush : unit -> unit;
}

val null : t
(** Discards everything.  The default. *)

val jsonl : out_channel -> t
(** One JSON object per line.  Spans are emitted when they {e close},
    so parents appear after their children in the stream. *)

val jsonl_file : string -> t
(** [jsonl] over a freshly opened file, flushed at process exit. *)

val record_to_json : span_record -> string
(** One ["type":"span"] JSONL object. *)

val event_to_json : event_record -> string

type captured = {
  spans : span_record list;
  events : event_record list;
}

val memory : unit -> t * (unit -> captured)
(** In-memory sink for tests; the closure returns everything captured
    so far in emission order. *)

val current : unit -> t
(** The active sink (one atomic load). *)

val set : t -> unit
(** Replace the active sink atomically, flushing the previous one. *)

val is_active : unit -> bool
(** [true] iff the active sink is not {!null}. *)
