(** Sparse multilinear maps [R^n × ... × R^n → R^m].

    A value of arity [k] represents a matrix [M] of shape [m × n^k]
    acting on k-fold Kronecker products — the QLDAE quadratic coupling
    [G2] (arity 2) and cubic coupling [G3] (arity 3). Circuit-derived
    couplings are extremely sparse, so every contraction here is
    [O(nnz)] instead of [O(m n^k)]. *)

type t

(** [create ~n_out ~n_in ~arity entries] builds the map from
    [(row, indices, coeff)] triplets. Duplicate positions accumulate. *)
val create : n_out:int -> n_in:int -> arity:int -> (int * int array * float) list -> t

(** The all-zero map. *)
val zero : n_out:int -> n_in:int -> arity:int -> t

val n_out : t -> int
val n_in : t -> int
val arity : t -> int

(** Number of stored triplets. *)
val nnz : t -> int

val is_zero : t -> bool

(** Stored triplets (copies). *)
val entries : t -> (int * int array * float) list

(** [iter f t] calls [f row indices coeff] per triplet; no copies. *)
val iter : (int -> int array -> float -> unit) -> t -> unit

val scale : float -> t -> t
val add : t -> t -> t

(** [apply_flat t x] is [M x] for a flat coordinate vector [x] of length
    [n_in^arity]. *)
val apply_flat : t -> Vec.t -> Vec.t

val apply_flat_complex : t -> Cvec.t -> Cvec.t

(** [apply_kron t [|v1; ...; vk|]] is [M (v1 ⊗ ... ⊗ vk)] without
    forming the Kronecker product. *)
val apply_kron : t -> Vec.t array -> Vec.t

(** Dense [m × n^k] matrix — small systems and tests only. *)
val to_dense : t -> Mat.t

val of_dense : arity:int -> n_in:int -> Mat.t -> t

(** [project ?w t v] is the reduced coupling [Wᵀ M (V ⊗ ... ⊗ V)]
    for a trial basis [V] with [q] columns and a test basis [W] of the
    same shape (default [V]: Galerkin), for an [M] symmetric in its
    indices (as {!symmetrize} leaves it). Only the sorted column tuples
    are contracted, each value written to every permutation of its
    tuple, so the result is exactly symmetric; entries in {!to_dense}
    order, exact zeros dropped. Requires [n_out = n_in]. *)
val project : ?w:Mat.t -> t -> Mat.t -> t

(** Average coefficients over index permutations; [M x^⊗k] is
    unchanged, contractions against distinct arguments become the
    symmetrized ones appearing in Volterra transfer functions. *)
val symmetrize : t -> t
