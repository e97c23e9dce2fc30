(** Ambient per-request telemetry scopes.

    [with_ ~name f] brackets one unit of work (a service request, a
    bench iteration) and captures the {e exact} per-scope deltas of
    {!Metrics} counters, {!Cost} counters and wall time.  Unlike
    {!Span} — which diffs merged process-wide snapshots and therefore
    smears concurrent domains' work into each other's records — a
    scope diffs the calling domain's own slots
    ({!Registry.local}): no lock, no merge, exact under
    concurrency.  Concurrent per-scope deltas sum
    to the process-wide delta.

    Every scope close feeds its duration into the ["scope.<name>"]
    {!Qhist} histogram (deterministic latency quantiles for free;
    skipped while {!Metrics.set_enabled} is [false]) and,
    when a sink is active, emits a {!Sink.scope_record}.  Nesting
    depth is tracked per domain, like span depth.

    For per-request deadlines, nest with [Robust.Budget.with_budget]
    (either way around) — scopes are deliberately budget-agnostic so
    [Obs] stays below [Robust] in the library graph.

    A scope must close on the domain that opened it (the domain-local
    snapshot is only meaningful there); running a whole scope inside
    one [Par] pool lane — one item of [Par.map_list] /
    [Par.parallel_for] — satisfies this by construction. *)

type t = {
  name : string;
  depth : int;  (** nesting depth on the opening domain, 0 = top *)
  start : float;  (** {!Clock.now} at entry *)
  dur : float;  (** elapsed seconds *)
  counters : (Metrics.counter * int) list;
      (** nonzero domain-local counter deltas, exact for this scope *)
  cost : (Cost.counter * int) list;
      (** nonzero domain-local {!Cost} deltas, exact for this scope *)
}

val with_ : name:string -> (unit -> 'a) -> 'a
(** Run [f] inside a scope.  The close (histogram feed + sink record)
    happens when [f] returns {e or raises}; the exception is
    re-raised. *)

val with_result : name:string -> (unit -> 'a) -> 'a * t
(** Like {!with_}, additionally returning the closed scope's captured
    deltas — the service loop's per-request accounting hook. *)

val depth : unit -> int
(** Current scope nesting depth on the calling domain. *)
