(** Continuous-time Lyapunov equations and Hankel singular values — the
    "measure inherent to linear MOR" the paper's §4 suggests for
    automatic moment-order selection. Dense: [A P + P Aᵀ] is [⊕²A]
    acting on the row-major [vec P], so every solve is one
    {!Ksolve.solve_shifted_real} at [k = 2], [σ = 0] on one Schur
    factorization of [A] ([O(n⁴)] work, [O(n²)] memory); intended for
    the moderate sizes of this library's systems. *)

(** Solve [A P + P Aᵀ + Q = 0] for Hurwitz [A]. The Schur
    factorization's eigenvalues decide stability: max [Re λ ≥ −1e-9]
    raises [Robust.Error.Error (Non_hurwitz { max_re; _ })], the one
    stability rule of the gramian users ([Balanced],
    [Autoselect.suggest_k1]). *)
val solve : a:Mat.t -> q:Mat.t -> Mat.t

(** Controllability gramian [A P + P Aᵀ + B Bᵀ = 0]; raises as
    {!solve}. *)
val controllability : a:Mat.t -> b:Mat.t -> Mat.t

(** Observability gramian [Aᵀ Q + Q A + Cᵀ C = 0]; raises as
    {!solve}. *)
val observability : a:Mat.t -> c:Mat.t -> Mat.t

(** Square-root balancing factors of [(A, B, C)]: the gramians'
    pivoted semi-definite square roots [P = R Rᵀ], [Q = S Sᵀ]
    ({!Chol.factor_semidefinite}) and the thin SVD [Sᵀ R = U Σ Vᵀ],
    keeping the singular values above [1e-10·σ₁]. [hsv] is [Σ]; all
    fields are empty past [r]/[s] when a gramian is zero. Raises as
    {!solve}; one Schur factorization of [A] serves both gramians. *)
type square_root = {
  r : Mat.t;  (** [n × rank P] *)
  s : Mat.t;  (** [n × rank Q] *)
  u : Mat.t;  (** left singular vectors of [Sᵀ R] *)
  hsv : float array;  (** Hankel singular values, descending *)
  v : Mat.t;  (** right singular vectors of [Sᵀ R] *)
}

val square_root : a:Mat.t -> b:Mat.t -> c:Mat.t -> square_root

(** The [hsv] of {!square_root}: Hankel singular values, descending. *)
val hankel_singular_values : a:Mat.t -> b:Mat.t -> c:Mat.t -> float array

(** Count of Hankel singular values above [tol] (relative to the
    largest). Default [tol = 1e-6]. *)
val suggested_order : ?tol:float -> a:Mat.t -> b:Mat.t -> c:Mat.t -> unit -> int
