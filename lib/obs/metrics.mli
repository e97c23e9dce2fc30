(** Process-wide kernel counters, gauges and histograms.

    Counters attribute reduction/simulation cost to the kernels the
    paper's complexity claims are stated in: LU factorizations,
    shifted Kronecker-sum solves, matrix-vector products, Krylov
    (Arnoldi) iterations, deflation discards, ODE steps/rejections,
    Newton iterations and recovery-ladder attempts.

    Counting is on by default and domain-safe: each domain increments
    its own accumulator array (held in a [Domain.DLS] slot), and
    readers merge all per-domain arrays under a mutex.  After
    [Domain.join] the merged totals are exact; while other domains are
    still running a read observes some interleaving of word-sized
    stores, never a torn value.  [set_enabled false] makes every
    recording operation a no-op, giving benchmarks an uninstrumented
    baseline. *)

type counter =
  | Lu_factor          (** dense LU factorizations ([La.Lu.factor]) *)
  | Lu_solve           (** triangular solves against an LU factor *)
  | Shifted_solve      (** shifted Kronecker-sum solves ([La.Ksolve]) *)
  | Matvec             (** dense matrix-vector products on Krylov paths *)
  | Arnoldi_iter       (** Arnoldi/MGS iterations *)
  | Deflation_discard  (** basis candidates dropped by QR deflation *)
  | Ode_step           (** accepted integrator steps *)
  | Ode_rejected       (** rejected/halved integrator steps *)
  | Newton_iter        (** Newton iterations inside implicit integrators *)
  | Ladder_attempt     (** solver fallback-ladder rung executions *)
  | Recovery_event     (** events recorded via [Robust.Report] *)
  | Budget_poll        (** slow-path budget polls ([Robust.Budget]) *)

val all : counter list
(** Every counter, in rendering order. *)

val name : counter -> string
(** Stable snake_case name used in every sink format. *)

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1) to a counter; no-op when disabled. *)

val get : counter -> int

val set_enabled : bool -> unit
(** Globally enable/disable all metric recording (default: enabled). *)

val is_enabled : unit -> bool

val set_gauge : string -> float -> unit
(** Record a last-write-wins named value (e.g. ["reduced_order"]). *)

val gauges : unit -> (string * float) list
(** All gauges, sorted by name. *)

val observe : string -> float -> unit
(** Feed one observation into the named histogram (a {!Qhist}
    observation on the calling domain's accumulator), unless counters
    are disabled.  Read histograms back through {!Qhist.view} /
    {!Qhist.all}. *)

type snapshot

val snapshot : unit -> snapshot
(** Capture current merged counter values (one locked merge pass). *)

val since : snapshot -> (counter * int) list
(** Counter deltas accumulated after [snapshot], nonzero ones only. *)

type local_snapshot
(** The calling domain's own accumulator at a point in time. *)

val local_snapshot : unit -> local_snapshot
(** Copy the calling domain's counter array — no lock, no merge.  The
    {!Scope} primitive: because a domain's array is written by that
    domain alone, a [local_since] delta taken on the same domain is
    exact even while other domains run concurrently. *)

val local_since : local_snapshot -> (counter * int) list
(** Nonzero deltas on the calling domain since [local_snapshot].  Only
    meaningful on the domain that took the snapshot. *)

val reset : unit -> unit
(** Zero all counters and drop all gauges/histograms. *)

val to_csv_string : unit -> string
(** CSV summary: [kind,name,value,count,sum,sumsq,min,max,stddev]
    rows — counters and gauges fill [value], histograms fill the
    per-stat columns. *)

val write_csv : string -> unit
(** Write {!to_csv_string} to a file. *)

val render_table : unit -> string
(** Human-readable table (the [--metrics] / [VMOR_METRICS=1] output). *)
