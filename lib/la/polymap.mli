(** Homogeneous polynomial maps [x ↦ Σ_k M_k x^⊗k] (the QLDAE couplings
    [G2 x⊗x + G3 x⊗x⊗x]) folded onto distinct sorted monomials
    [i₁ ≤ … ≤ i_k] in flat arrays. An apply forms each monomial once in
    a caller-owned scratch, then runs one CSR matvec over
    [(row, monomial)], charging [Flops_tensor] [2·nnz + Σ_m (deg m − 1)]. *)

type t

(** [compile terms] sums the terms (all [n_out × n_in^k], any arities)
    onto distinct monomials, dropping sums that are exactly zero.
    Raises [Invalid_argument] on an empty list or mismatched shapes. *)
val compile : Sptensor.t list -> t

(** Number of distinct monomials (the scratch length). *)
val n_monomials : t -> int

(** Stored [(row, monomial)] coefficients. *)
val nnz : t -> int

(** A fresh scratch vector of length {!n_monomials}. *)
val scratch : t -> Vec.t

(** [apply_add t ~scratch x out] adds [Σ_k M_k x^⊗k] into [out],
    overwriting [scratch]. Allocates nothing. *)
val apply_add : t -> scratch:Vec.t -> Vec.t -> Vec.t -> unit

(** [jacobian_add t x jac] adds the Jacobian at [x] into [jac]. *)
val jacobian_add : t -> Vec.t -> Mat.t -> unit
