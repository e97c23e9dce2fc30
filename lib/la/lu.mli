(** LU factorization with partial pivoting, and triangular solves.

    A factorization is computed once with {!factor} and reused for many
    right-hand sides — the access pattern of Krylov subspace generation
    expanded at [s = 0]. *)

(** Raised with the pivot stage index when a zero pivot is met. *)
exception Singular of int

type t

(** Factor a square matrix. Raises {!Singular} if structurally singular,
    [Invalid_argument] if not square. *)
val factor : Mat.t -> t

(** [solve t b] solves [A x = b] for the factored [A]. *)
val solve : t -> Vec.t -> Vec.t

(** Column-wise solve: [solve_mat t B] solves [A X = B]. *)
val solve_mat : t -> Mat.t -> Mat.t

(** Determinant of the factored matrix. *)
val det : t -> float

(** [log |det|], summed over the pivots: finite where {!det} over- or
    underflows. *)
val log_abs_det : t -> float

(** Explicit inverse (prefer {!solve} when possible). *)
val inverse : t -> Mat.t

(** One-shot [A x = b]. *)
val solve_system : Mat.t -> Vec.t -> Vec.t

(** One-shot [A X = B]. *)
val solve_mat_system : Mat.t -> Mat.t -> Mat.t
