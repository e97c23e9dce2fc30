(** Complex LU factorization with partial pivoting. Powers
    [Volterra.Transfer]'s dense frequency-domain evaluation of the
    multivariate transfer functions (its cached resolvents
    [(σI − G1)^-1]) and the dense test references; the associated
    transforms solve on [G1]'s Schur form through {!Ksolve} instead. *)

type t

(** Factor a square complex matrix. Raises [Lu.Singular] on a zero
    pivot. *)
val factor : Cmat.t -> t

(** [solve t b] solves [A x = b]. *)
val solve : t -> Cvec.t -> Cvec.t

(** One-shot solve. *)
val solve_system : Cmat.t -> Cvec.t -> Cvec.t
