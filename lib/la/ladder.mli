(** Dense linear-solve fallback ladder: LU -> column-pivoted QR ->
    Tikhonov-regularized normal equations.

    A {!t} wraps one square matrix like {!Lu.t} wraps its
    factorization, but escalates through the rungs when a solve fails
    (singular factorization, non-finite solution, or — under
    [VMOR_CHECKS] — a residual out of bounds). Factorizations are
    cached per rung; a fault-free run pays one LU factorization plus an
    O(n) finiteness check per solve. Escalations are recorded against
    the optional [Robust.Report] recorder. *)

type rung = [ `Lu | `Qr | `Tikhonov ]

type t

val make :
  ?recorder:Robust.Report.recorder ->
  ?mu:float ->
  ?rungs:rung list ->
  ?loc:Robust.Error.location ->
  Mat.t ->
  t
(** Wrap a square matrix. [mu] (default 1e-8) scales the Tikhonov
    parameter relative to the matrix inf-norm; [rungs] (default all
    three, in order) selects and orders the fallback chain. The LU
    rung is factored eagerly so a structurally singular operator is
    recorded at construction. *)

val solve : t -> Vec.t -> Vec.t
(** Solve through the ladder. Raises [Robust.Error.Error] with
    [Budget_exhausted] when every rung fails. *)

val last_rung : t -> rung
(** The rung that produced the most recent successful solve (the first
    configured rung before any solve). *)

val lu : t -> Lu.t option
(** The cached LU factorization, when the LU rung has been factored
    and did not come back singular. Exposed for conditioning
    diagnostics ({!Lu.condest}); never forces a factorization. *)

val classify : ?loc:Robust.Error.location -> exn -> Robust.Error.t option
(** Map the linear-algebra layer's exceptions ([Lu.Singular],
    [Ksolve.Near_singular], non-finite [Invalid_argument] contracts,
    [Robust.Error.Error]) to the typed taxonomy; [None] for foreign
    exceptions. *)
