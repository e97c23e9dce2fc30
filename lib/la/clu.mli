(** Complex LU factorization with partial pivoting. Powers the
    frequency-domain evaluation of Volterra transfer functions at complex
    frequencies [(sI − G1)^-1 v]. *)

type t

(** Factor a square complex matrix. Raises [Lu.Singular] on a zero
    pivot. *)
val factor : Cmat.t -> t

(** [solve t b] solves [A x = b]. *)
val solve : t -> Cvec.t -> Cvec.t

(** One-shot solve. *)
val solve_system : Cmat.t -> Cvec.t -> Cvec.t

(** [solve_shifted a σ b] solves [(σ I − a) x = b] for real [a]. *)
val solve_shifted : Mat.t -> Complex.t -> Cvec.t -> Cvec.t
