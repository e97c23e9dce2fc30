(** Reading and analyzing JSONL traces (the inverse of {!Sink.jsonl}).

    Spans are emitted when they close, so a trace lists children
    before their parents; {!of_records} rebuilds the hierarchy from
    the recorded depths.  The renderers back the [vmor report]
    subcommand, and return strings — printing is the caller's
    business. *)

type record =
  | Span of Sink.span_record
  | Event of Sink.event_record

type item = Node of Sink.span_record * item list | Leaf of Sink.event_record

type t = {
  roots : item list;  (** top-level items, in completion order *)
  spans : Sink.span_record list;  (** all spans, emission order *)
  events : Sink.event_record list;  (** all events, emission order *)
}

exception Malformed of string
(** Raised on lines that are not valid trace records. *)

val parse_line : string -> record
val of_records : record list -> t

val load : string -> t
(** Parse a JSONL trace file.  Blank lines are skipped; items whose
    enclosing span never closed (truncated trace) become extra roots. *)

val render_tree : ?max_depth:int -> t -> string
(** Where-the-time-went tree: per-span duration and kernel-counter
    deltas, point events aggregated by name (recovery events are shown
    individually with their detail). *)

type attrib = {
  span : string;  (** span name *)
  calls : int;  (** occurrences across the trace *)
  incl_s : float;  (** total inclusive seconds *)
  excl_s : float;  (** total exclusive seconds (self minus children) *)
  incl_minor_words : float;
  excl_minor_words : float;
  incl_major_words : float;
  excl_major_words : float;
  incl_flops : int;  (** total inclusive nominal flops ({!Cost}) *)
  excl_flops : int;  (** exclusive flops (self minus children, >= 0) *)
  incl_bytes : int;  (** total inclusive nominal bytes moved *)
  excl_bytes : int;  (** exclusive bytes (self minus children, >= 0) *)
}

val attribution : t -> attrib list
(** Per-span-name inclusive and exclusive time/allocation/work totals
    over every span in the trace (truncated-trace orphans included),
    sorted by exclusive time descending.  Exclusive cost is the span's
    own value minus the sum over its direct child spans, clamped at
    zero; allocation columns are zero for traces recorded without
    {!Prof} capture, and flop/byte columns are zero for traces
    recorded before the {!Cost} layer existed. *)

val flops_rate : flops:int -> seconds:float -> string
(** Derived flops-per-second, or ["n/a"] when [seconds] is zero (below
    clock resolution) or non-finite — the rate guard used by the
    {!render_hot} column. *)

val render_hot : ?top:int -> t -> string
(** "Hot kernels" table over {!attribution}, showing the [top]
    (default 10) spans by exclusive time, with exclusive flop/byte
    totals and the guarded flops-per-second rate. *)

val to_chrome : t -> Json.t
(** Chrome trace-event JSON (chrome://tracing, Perfetto): spans as
    ["X"] complete events with microsecond [ts]/[dur] normalized to
    the earliest record, point events as instant events, counters and
    [prof.*] telemetry in [args]. *)

val chrome_string : t -> string
(** [Json.render (to_chrome t)]. *)

val validate_chrome : Json.t -> unit
(** Structural check of a Chrome trace-event value: non-empty
    [traceEvents], each with [name]/[ph]/[ts]/[pid]/[tid] and a
    finite non-negative [dur] on ["X"] events.  Raises {!Malformed}. *)

val to_folded : t -> string
(** Folded-stack rendering (flamegraph.pl, speedscope): one
    ["root;child;leaf count"] line per unique call stack, counts in
    exclusive integer microseconds.  Counts sum exactly to the total
    root inclusive time whenever children nest within their parents;
    names are sanitized (spaces to [_], [;] to [:]). *)

val health_records : t -> Health.record list
(** Every decodable health event, in emission order. *)

type health_summary = {
  max_cond : (string * int * float) list;
      (** per context: dimension and largest condition estimate *)
  streaks : (string * float * int) list;
      (** ODE rejection streaks: context, model time, length *)
  residuals : (int * float * float) list;
      (** moment residuals: k, s0, relative residual (last per k) *)
  freq_worst : (float * float) option;  (** omega, worst relative error *)
  freq_samples : int;
  pod : (int * int * float * float) option;
      (** retained, total, energy, tail *)
}

val summarize : t -> health_summary

val render_health : t -> string
(** Human-readable numerical-health summary block. *)

val render_diff : t -> t -> string
(** Compare two traces: per-span-name calls and inclusive seconds
    (from {!attribution}), whole-run kernel counters and cost totals
    (depth-0 spans), and headline health values, with percentage
    deltas. *)
