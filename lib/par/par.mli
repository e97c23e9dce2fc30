(** Deterministic data parallelism on a shared domain pool.

    [Par] is the only sanctioned way to use multiple cores in this
    codebase ([Domain.spawn] anywhere else fails the
    [raw-domain-spawn] lint): a process-wide ambient lane count set by
    {!with_domains} (which [Vmor.reduce] installs from
    [Options.domains]), plus two primitives — {!tiles} over an index
    range and {!map_list} over work items — that split work across a
    lazily-created worker pool.

    {b Determinism.} Every primitive is bit-identical to its serial
    counterpart on success: ranges split into contiguous per-lane
    tiles so each element's floating-point accumulation order is
    unchanged, work items fill pre-sized index slots and merge in
    index order, and when lanes raise, the exception of the {e lowest}
    lane/item index is re-raised after every lane has stopped — the
    same failure a serial left-to-right run would have surfaced.
    With the ambient lane count at 1 (the default, and
    [Options.domains = None]) the serial code path runs unchanged.

    {b Budgets.} The ambient [Robust.Budget] lives in a process-wide
    atomic, so every worker polls the same budget with no
    re-installation; exhaustion latches the budget's [spent] atomic,
    which cancels sibling lanes at their next poll.  See DESIGN.md
    §14.

    {b Observability.} [Obs.Metrics] counters are per-domain and merge
    exactly on read; [Obs.Span] events from workers carry their own
    (domain-local) depth.  The JSONL trace sink is not internally
    locked — run traced reductions serially, or accept interleaved
    lines. *)

val max_domains : int
(** Upper bound (64) accepted by {!with_domains}; [Options.make]
    rejects anything outside [[1, max_domains]] before it gets
    here. *)

val domains : unit -> int
(** The ambient lane count (1 = serial, the default). *)

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count ()]: how many domains the host
    can usefully run in parallel.  Benchmarks record it so speedup
    numbers can be interpreted (4 lanes on a single core measure
    scheduler overhead, not kernel scaling). *)

val with_domains : int option -> (unit -> 'a) -> 'a
(** [with_domains (Some n) f] runs [f] with the ambient lane count set
    to [n] (clamped to [[1, max_domains]]), restoring the previous
    count afterwards, even on exceptions.  [with_domains None f] is
    exactly [f ()] — the ambient count is untouched, so a library
    layer passing through an absent [Options.domains] does not disable
    parallelism the CLI enabled.  The worker pool is created lazily on
    the first parallel region and joined at process exit. *)

val tiles :
  ?min_chunk:int -> lo:int -> hi:int -> (lo:int -> hi:int -> unit) -> unit
(** [tiles ~lo ~hi body] covers the half-open range [\[lo, hi)] with
    contiguous, disjoint tiles, calling [body ~lo ~hi] once per tile —
    concurrently when the ambient lane count allows.  When the range
    is shorter than [2 * min_chunk] (default 1024), the lane count is
    1, or the region is nested inside another parallel region, [body]
    is called exactly once with the whole range — the serial path.
    [body] must write only to range-indexed slots of its own tile. *)

val map_list : ('a -> 'b) -> 'a list -> 'b list
(** [map_list f xs] is [List.map f xs] with items claimed by a shared
    atomic cursor and results written into pre-sized index slots, so
    the output order (and, on failure, the raised exception — lowest
    item index wins) matches the serial map. *)

val shutdown_pool : unit -> unit
(** Join the shared worker pool, if one was created.  Runs
    automatically at process exit; call it manually only to assert
    quiescence in tests.  Safe to call repeatedly — a later parallel
    region just re-creates the pool. *)
