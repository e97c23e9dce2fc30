(** Kronecker products and Kronecker sums.

    Indexing convention (row-major, first factor slowest):
    [(u ⊗ v).(i * dim v + j) = u.(i) *. v.(j)] and
    [(A ⊗ B)[(i*p + k), (j*q + l)] = A[i,j] * B[k,l]].
    With this convention [(A ⊗ B)(u ⊗ v) = (A u) ⊗ (B v)] and the
    exponential identity [e^(A ⊕ B) = e^A ⊗ e^B] hold — the two Kronecker
    facts the paper's Theorem 1 rests on. *)

(** Kronecker product of two vectors. *)
val vec : Vec.t -> Vec.t -> Vec.t

(** [vec_pow v k] is the k-fold Kronecker power [v ⊗ ... ⊗ v], k ≥ 1. *)
val vec_pow : Vec.t -> int -> Vec.t

(** Kronecker product of two matrices (materialized — small inputs). *)
val mat : Mat.t -> Mat.t -> Mat.t

(** Kronecker sum [A ⊕ B = A ⊗ I + I ⊗ B] of square matrices
    (materialized — small inputs; use {!Ksolve} for structured solves). *)
val sum : Mat.t -> Mat.t -> Mat.t

(** [sum_pow A k] is the paper's [⊕^k A], k ≥ 1. *)
val sum_pow : Mat.t -> int -> Mat.t

(** [(A ⊗ B) x] without materializing the product. *)
val mat_mul_vec_2 : Mat.t -> Mat.t -> Vec.t -> Vec.t

(** [(A ⊕ B) x] without materializing the sum. *)
val sum_mul_vec : Mat.t -> Mat.t -> Vec.t -> Vec.t

(** [sym2 n x] symmetrizes a length-[n²] coordinate vector:
    entry [(i,j)] becomes [(x_(i,j) + x_(j,i)) / 2]. *)
val sym2 : int -> Vec.t -> Vec.t
