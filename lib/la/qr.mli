(** Householder QR factorization, least squares, and the deflating
    orthonormalization used to assemble MOR projection bases. *)

type t

(** Factor an [m]x[n] matrix with [m >= n] as [A = Q R]. *)
val factor : Mat.t -> t

(** Upper-triangular [n]x[n] factor. *)
val r : t -> Mat.t

(** Apply the full orthogonal factor: [apply_q t x = Q x]. *)
val apply_q : t -> Vec.t -> Vec.t

(** First [n] columns of [Q] (the thin factor). *)
val thin_q : t -> Mat.t

(** One-shot least squares. *)
val least_squares : Mat.t -> Vec.t -> Vec.t

(** Orthonormalize vectors by modified Gram–Schmidt with a second
    reorthogonalization pass, dropping vectors whose orthogonal residual
    is below [tol] (relative to their input norm). Order is preserved, so
    earlier vectors — lower-order moments — are always retained. Default
    [tol = 1e-10]. *)
val orthonormalize : ?tol:float -> Vec.t list -> Vec.t list

(** {!orthonormalize} packed as the columns of a matrix. *)
val orth_mat : ?tol:float -> Vec.t list -> Mat.t

(** Numerical rank via pivoted elimination. Default [tol = 1e-10]
    (relative to [‖A‖_F]). *)
val rank : ?tol:float -> Mat.t -> int
