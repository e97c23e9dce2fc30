(** OpenMetrics / Prometheus text exposition.

    {!render} serializes everything the Obs layer knows — {!Metrics}
    counters ([vmor_<name>_total]), {!Cost} counters
    ([vmor_cost_<name>_total]), gauges ([vmor_gauge_<name>]), every
    {!Qhist} distribution as a native histogram family
    ([vmor_hist_<name>] with cumulative [_bucket{le="..."}] samples,
    [_sum] and [_count]), and build metadata ([vmor_build_info]) — in
    the OpenMetrics text format, terminated by [# EOF].  The prefix
    partition makes family-name collisions between the sources
    impossible.  Only nonzero buckets are emitted (sparse cumulative
    emission is valid), plus the mandatory [+Inf] bucket.

    Exposed behind [vmor metrics [--out FILE]] and the
    [VMOR_METRICS=openmetrics:PATH] environment mode.  See DESIGN.md
    section 16. *)

exception Invalid of string
(** Raised by {!write_file} when render and validator disagree — an
    internal exposition-format bug, not a user error. *)

val render : unit -> string
(** The current exposition.  Deterministic up to the recorded
    telemetry: families sorted by source order / name, histogram
    bucket counts bit-identical whenever the underlying {!Qhist}
    counts are. *)

val validate : string -> (unit, string) result
(** Independent line-format checker: metadata shape, name charset,
    metadata-before-samples, known sample suffixes per family type,
    label syntax, parseable values, monotone cumulative buckets with a
    terminal [+Inf] agreeing with [_count], single trailing [# EOF].
    [Error] carries the first offending line. *)

val write_file : string -> unit
(** {!render}, {!validate} (raising [Failure] on an internal format
    bug) and write to a file. *)
