(** Dense complex matrices in split (re/im) row-major storage. *)

type t = { rows : int; cols : int; re : float array; im : float array }

val create : int -> int -> t
val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> Complex.t
val set : t -> int -> int -> Complex.t -> unit
val add_to : t -> int -> int -> Complex.t -> unit
val init : int -> int -> (int -> int -> Complex.t) -> t

(** Embed a real matrix. *)
val of_real : Mat.t -> t

val copy : t -> t
val scale : Complex.t -> t -> t

(** Conjugate transpose. *)
val adjoint : t -> t

val mul_vec : t -> Cvec.t -> Cvec.t

(** [mul_vec_adjoint m v] is [m^H v] without forming the adjoint. *)
val mul_vec_adjoint : t -> Cvec.t -> Cvec.t

(** [add_diag m σ] is [m + σ I]. *)
val add_diag : t -> Complex.t -> t
