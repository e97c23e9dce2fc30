(** Complex vectors in split storage (separate unboxed real and imaginary
    [float array]s), keeping Kronecker-sum tensor solves free of boxed
    [Complex.t] values. *)

type t = { re : float array; im : float array }

val create : int -> t
val dim : t -> int

(** Wrap two arrays of equal length (no copy). *)
val make : re:float array -> im:float array -> t

val of_real : Vec.t -> t
val copy : t -> t
val init : int -> (int -> Complex.t) -> t
val get : t -> int -> Complex.t
val set : t -> int -> Complex.t -> unit
val real_part : t -> Vec.t
val imag_part : t -> Vec.t
val norm2 : t -> float

(** Conjugated inner product [Σ conj(aᵢ) bᵢ]. *)
val dot : t -> t -> Complex.t

val add : t -> t -> t
val sub : t -> t -> t
val scale : Complex.t -> t -> t

(** [axpy ~alpha x y] updates [y <- y + alpha x]. *)
val axpy : alpha:Complex.t -> t -> t -> unit

val dist : t -> t -> float

(** Real part of a vector expected to be real; fails if the imaginary
    residue exceeds [tol] relatively (default [1e-6]). *)
val to_real : ?tol:float -> t -> Vec.t

(** Kronecker product with the same indexing convention as {!Kron.vec}. *)
val kron : t -> t -> t
