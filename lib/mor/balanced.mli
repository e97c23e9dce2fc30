(** Square-root balanced truncation of the linear subsystem, extended to
    QLDAEs by oblique projection of the full nonlinear model — the
    balancing-based projection NMOR lineage of the paper's refs [10,
    11], provided as an additional baseline and as the concrete
    "Hankel-singular-value machinery" of the §4 remark.

    Requires a Hurwitz [G1]: the gramian solves of [La.Lyapunov] raise
    [Robust.Error.Error (Non_hurwitz _)] otherwise — in particular
    quadratized diode circuits are excluded; use {!Atmor}. *)

open Volterra

type result = {
  rom : Qldae.t;
  v : La.Mat.t;  (** trial basis *)
  w : La.Mat.t;  (** test basis, [Wᵀ V = I] *)
  hsv : float array;  (** Hankel singular values, descending *)
  order : int;
}

(** Reduce to [order] states (or to all HSVs above [tol] relative to
    the largest, default [1e-8]). Two Schur factorizations in all, one
    per gramian. *)
val reduce : ?order:int -> ?tol:float -> Qldae.t -> result

(** Result-returning variant: the typed [Robust.Error.Non_hurwitz]
    (carrying the spectral abscissa of [G1]) and every other recognized
    numerical failure map through {!Atmor.classify} to [Error]. *)
val try_reduce :
  ?order:int -> ?tol:float -> Qldae.t -> (result, Robust.Error.t) Stdlib.result
