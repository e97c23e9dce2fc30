(** Process-wide kernel counters and gauges.

    Counters attribute reduction/simulation cost to the kernels the
    paper's complexity claims are stated in: LU factorizations,
    shifted Kronecker-sum solves, matrix-vector products, deflation
    discards, ODE steps/rejections, Newton iterations, recovery events
    and budget polls.

    Counting is on by default.  The counters are a view over the
    per-domain {!Registry} store, which carries the domain-safety
    contract.  {!set_enabled} is the one switch for every counter,
    gauge and {!Cost} charge. *)

type counter =
  | Lu_factor          (** dense LU factorizations ([La.Lu.factor]) *)
  | Lu_solve           (** triangular solves against an LU factor *)
  | Shifted_solve      (** shifted Kronecker-sum solves ([La.Ksolve]) *)
  | Matvec             (** dense matrix-vector products on Krylov paths *)
  | Deflation_discard  (** basis candidates dropped by QR deflation *)
  | Ode_step           (** accepted integrator steps *)
  | Ode_rejected       (** rejected/halved integrator steps *)
  | Newton_iter        (** Newton iterations inside implicit integrators *)
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
(** Globally enable/disable all recording — counters, gauges and
    {!Cost} charges (default: enabled).  [false] is
    the uninstrumented baseline of the overhead benchmark. *)

val set_gauge : string -> float -> unit
(** Record a last-write-wins named value (e.g. ["reduced_order"]). *)

val gauges : unit -> (string * float) list
(** All gauges, sorted by name. *)

type snapshot = Registry.snapshot

val snapshot : unit -> snapshot
(** Capture current merged counter values (one locked merge pass).
    The same snapshot also carries the {!Cost} slots. *)

val since : snapshot -> (counter * int) list
(** Counter deltas accumulated after [snapshot], nonzero ones only. *)

val diff : snapshot -> snapshot -> (counter * int) list
(** [diff snap now]: nonzero counter deltas between two snapshots. *)

val reset : unit -> unit
(** Zero every event counter and {!Cost} counter and drop every
    gauge. *)

val render_table : unit -> string
(** Human-readable table of every nonzero counter and every gauge (the
    [--metrics] / [VMOR_METRICS=1] output). *)
