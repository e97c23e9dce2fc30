(** Real Schur decomposition [A = U T Uᵀ] with [U] real orthogonal and
    [T] real quasi-triangular.

    This is the paper's §2.3 acceleration: one Schur factorization of
    [G1] makes every shifted Kronecker-sum solve
    [(σI − ⊕^k G1)^{-1} v] a block-triangular tensor back-substitution
    (see {!Ksolve}) — the key to computing associated-transform moments
    without materializing [n²]- or [n³]-dimensional matrices. [T] is
    triangular when the spectrum is real; each complex pair keeps one
    standardized 2x2 block, and real and complex shifts alike run on
    these real factors. *)

type t

(** Schur form of a real square matrix: Householder-Hessenberg
    reduction and Francis double-shift QR to the real quasi-triangular
    form, 2x2 blocks with real eigenvalues split into triangular form,
    and so is a pair whose smaller off-diagonal is within the
    iteration's backward error [n·ε·‖A‖_F] (a semisimple multiple
    eigenvalue, such as a quadratized diode circuit's zero, comes out
    as such pairs). Raises the typed [Convergence_failure] if the QR
    iteration fails to converge (pathological inputs). Charges a
    nominal [25 n³] Schur flops. *)
val decompose : Mat.t -> t

(** The Schur form of [Aᵀ] from that of [A], with no second
    factorization: [Aᵀ = (U J)(J Tᵀ J)(U J)ᵀ] for the index reversal
    [J], blocks and eigenvalues in reverse order, each pair's positive
    imaginary part first. *)
val transpose : t -> t

(** [(U, T)]: [U] real orthogonal and [T] real quasi-triangular, [T]
    upper triangular when the spectrum is real, otherwise with one
    standardized 2x2 block [a b; c a] ([T(i+1,i) ≠ 0], [b c < 0]) per
    complex pair. *)
val real_factors : t -> Mat.t * Mat.t

(** The diagonal blocks of [T] in order, each as its first index and
    one past its last: [(i, i + 1)] for a real eigenvalue, [(i, i + 2)]
    for a complex pair's 2x2 block. *)
val blocks : t -> (int * int) array

(** Eigenvalues, index [i] the [i]-th of [T]'s diagonal, read off the
    blocks: a standardized block [a b; c a] holds
    [a ± i·sqrt(|b c|)], positive imaginary part first. *)
val eigenvalues : t -> Complex.t array

(** Relative Frobenius residual [‖U T Uᵀ − A‖/(1+‖A‖)]. *)
val residual : a:Mat.t -> t -> float
