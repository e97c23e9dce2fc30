(** Homogeneous polynomial maps [x ↦ Σ_k M_k x^⊗k] (the QLDAE couplings
    [G2 x⊗x + G3 x⊗x⊗x]) in one of two layouts:

    - {b compiled}: folded onto distinct sorted monomials
      [i₁ ≤ … ≤ i_k] in flat arrays. An apply forms each monomial once
      in a caller-owned scratch, then runs one CSR matvec over
      [(row, monomial)], charging [Flops_tensor]
      [2·nnz + Σ_m (deg m − 1)].
    - {b lifted}: a projected map [z ↦ Wᵀ P(V z)] kept as its factors
      around the unprojected map [P]. An apply lifts [x = V z], applies
      [P] in its own layout and restricts with [Wᵀ], charging
      [Flops_tensor] [4·n·q] plus [P]'s own charge.

    {!project} picks the layout whose nominal apply cost is lower. *)

type t

(** Caller-owned buffers of one map's applies. *)
type scratch

(** [compile terms] sums the terms (all [n_out × n_in^k], any arities)
    onto distinct monomials, dropping sums that are exactly zero.
    Raises [Invalid_argument] on an empty list or mismatched shapes. *)
val compile : Sptensor.t list -> t

(** [project ~wt ~v p terms] is [z ↦ Wᵀ p(V z)] for [V] [n × q], [wt]
    ([= Wᵀ]) [q × n] and [p] [n × n^k], with [terms] the same map's
    projected couplings ([q × q^k]). Lifted when
    [4·n·q + (p's apply flops)] is below the cost of [terms] compiled
    with every degree-k monomial stored in every row,
    [Σ_k (2·q + k − 1)·C(q+k−1, k)] over the nonzero terms; compiled
    from [terms] otherwise, ties included. *)
val project : wt:Mat.t -> v:Mat.t -> t -> Sptensor.t list -> t

(** Number of distinct monomials (of the unprojected map, lifted). *)
val n_monomials : t -> int

(** Stored [(row, monomial)] coefficients (of the unprojected map,
    lifted); [0] for the zero map. *)
val nnz : t -> int

(** Fresh buffers for {!apply_add} on this map. *)
val scratch : t -> scratch

(** [apply_add t ~scratch x out] adds [Σ_k M_k x^⊗k] into [out],
    overwriting [scratch]. Allocates nothing. Raises
    [Invalid_argument] on a scratch made for another layout. *)
val apply_add : t -> scratch:scratch -> Vec.t -> Vec.t -> unit

(** [jacobian_add t x jac] adds the Jacobian at [x] into [jac]
    (uncharged). *)
val jacobian_add : t -> Vec.t -> Mat.t -> unit
