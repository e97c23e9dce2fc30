(** Dense real matrices, row-major over an unboxed [float array].

    Entry [(i, j)] of an [r]x[c] matrix lives at flat index [i*c + j]. All
    operations validate dimensions and raise [Invalid_argument] on
    mismatch. *)

type t = { rows : int; cols : int; data : float array }

(** [create r c] is the [r]x[c] zero matrix. *)
val create : int -> int -> t

(** [(rows, cols)] pair. *)
val dims : t -> int * int

val rows : t -> int
val cols : t -> int

(** Underlying flat storage (not a copy). *)
val data : t -> float array

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

(** [add_to m i j x] increments entry [(i,j)] by [x]. *)
val add_to : t -> int -> int -> float -> unit

val init : int -> int -> (int -> int -> float) -> t
val identity : int -> t

(** Square matrix with the given vector on the diagonal. *)
val diag : Vec.t -> t

(** Main diagonal of a (possibly rectangular) matrix. *)
val diagonal : t -> Vec.t

val copy : t -> t
val of_list : float list list -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val neg : t -> t
val transpose : t -> t

(** Matrix-matrix product. *)
val mul : t -> t -> t

(** Matrix-vector product. *)
val mul_vec : t -> Vec.t -> Vec.t

(** [gemv ?alpha ?beta m v out] computes [out <- beta*out + alpha*m*v]
    without allocating. Defaults: [alpha = 1.0], [beta = 0.0]. *)
val gemv : ?alpha:float -> ?beta:float -> t -> Vec.t -> Vec.t -> unit

(** [mul_vec_transpose m v] is [mᵀ v] without forming the transpose. *)
val mul_vec_transpose : t -> Vec.t -> Vec.t

(** Outer product [u vᵀ]. *)
val outer : Vec.t -> Vec.t -> t

val trace : t -> float

(** Frobenius norm. *)
val norm_fro : t -> float

(** Maximum absolute row sum (operator infinity norm). *)
val norm_inf : t -> float

(** Maximum absolute column sum (operator 1-norm). *)
val norm1 : t -> float

(** Largest entry magnitude. *)
val max_abs : t -> float

val col : t -> int -> Vec.t
val row : t -> int -> Vec.t
val set_col : t -> int -> Vec.t -> unit

(** Matrix whose columns are the given vectors. *)
val of_cols : Vec.t list -> t

(** Columns as a list of vectors. *)
val cols_list : t -> Vec.t list

val submatrix : t -> row:int -> col:int -> rows:int -> cols:int -> t

(** [blit ~src ~dst ~row ~col] copies [src] into [dst] with its top-left
    corner at [(row, col)]. *)
val blit : src:t -> dst:t -> row:int -> col:int -> unit

(** Horizontal concatenation [[a b]]. *)
val hcat : t -> t -> t

(** Vertical concatenation [[a; b]]. *)
val vcat : t -> t -> t

val swap_rows : t -> int -> int -> unit
val is_square : t -> bool
val is_symmetric : ?tol:float -> t -> bool

(** [approx_equal ?tol a b] tests [‖a-b‖_F ≤ tol·(1+‖a‖_F)]. *)
val approx_equal : ?tol:float -> t -> t -> bool

(** Matrix with entries uniform on [[-1, 1]] from the given PRNG state. *)
val random : rng:Random.State.t -> int -> int -> t

(** Vector with entries uniform on [[-1, 1]]. *)
val random_vec : rng:Random.State.t -> int -> Vec.t
