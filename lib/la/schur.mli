(** Schur decomposition [A = U T U^H] with [T] upper triangular and [U]
    unitary.

    This is the paper's §2.3 acceleration: one Schur factorization of
    [G1] makes every shifted Kronecker-sum solve
    [(σI − ⊕^k G1)^{-1} v] a triangular tensor back-substitution (see
    {!Ksolve}) — the key to computing associated-transform moments
    without materializing [n²]- or [n³]-dimensional matrices. A real
    matrix is reduced to the real Schur form first (Francis double-shift
    QR), which {!real_factors} hands to the real-shift solves in real
    arithmetic; it is triangular when the spectrum is real. *)

type t

(** Schur form of a real square matrix: Householder-Hessenberg
    reduction and Francis double-shift QR to the real quasi-triangular
    form, 2x2 blocks with real eigenvalues split into triangular form,
    and so is a pair whose smaller off-diagonal is within the
    iteration's backward error [n·ε·‖A‖_F] (a semisimple multiple
    eigenvalue, such as a quadratized diode circuit's zero, comes out
    as such pairs). The complex QR iteration finishes the remaining
    complex pairs on copies of the same factors, when {!unitary} or
    {!triangular} first asks for them. Raises the typed
    [Convergence_failure] if a QR iteration fails to converge
    (pathological inputs). Charges a nominal [25 n³] Schur flops. *)
val decompose : Mat.t -> t

(** Schur form of a complex square matrix. *)
val decompose_complex : Cmat.t -> t

(** [Some (U, T)] for a real input: [U] real orthogonal and [T] real
    quasi-triangular, [T] upper triangular when the spectrum is real,
    otherwise with one standardized 2x2 block ([T(i+1,i) ≠ 0]) per
    complex pair. {!unitary} and {!triangular} are the complex
    triangular form, equal to these when [T] has no block. [None] for
    {!decompose_complex}. *)
val real_factors : t -> (Mat.t * Mat.t) option

(** The diagonal blocks of the real [T] in order, each as its first
    index and one past its last: [(i, i + 1)] for a real eigenvalue,
    [(i, i + 2)] for a complex pair's 2x2 block. Every block is 1x1 for
    {!decompose_complex}. *)
val blocks : t -> (int * int) array

(** The unitary factor [U] of the complex triangular form. For a real
    input with complex pairs the first call of {!unitary},
    {!triangular}, {!reconstruct} or {!residual} runs the complex QR
    iteration that finishes the 2x2 blocks. *)
val unitary : t -> Cmat.t

(** The upper-triangular factor [T] of the complex form. *)
val triangular : t -> Cmat.t

(** Eigenvalues, index [i] the [i]-th of [T]'s diagonal: for a real
    input read off the real factor (a standardized block [a b; c a]
    holds [a ± i·sqrt(|b c|)], positive imaginary part first), for a
    complex input the diagonal of [T]. *)
val eigenvalues : t -> Complex.t array

(** [U T U^H], for testing. *)
val reconstruct : t -> Cmat.t

(** Relative Frobenius residual [‖U T U^H − A‖/(1+‖A‖)]. *)
val residual : a:Mat.t -> t -> float
