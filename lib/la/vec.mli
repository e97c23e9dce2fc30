(** Dense real vectors backed by unboxed [float array].

    All binary operations check dimensions and raise [Invalid_argument] on
    mismatch. Functions returning vectors allocate fresh storage unless the
    name says [_inplace]. *)

type t = float array

(** [create n] is the zero vector of dimension [n]. *)
val create : int -> t

(** [init n f] is the vector whose [i]-th entry is [f i]. *)
val init : int -> (int -> float) -> t

val copy : t -> t
val of_list : float list -> t

(** Defensive copy of a float array. *)
val of_array : float array -> t

(** Overwrite every entry with the given value. *)
val fill : t -> float -> unit

(** [basis n i] is the [i]-th canonical basis vector of R^n. *)
val basis : int -> int -> t

(** [constant n x] is the vector of dimension [n] with all entries [x]. *)
val constant : int -> float -> t

val map : (float -> float) -> t -> t
val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : float -> t -> t
val scale_inplace : float -> t -> unit

(** [axpy ~alpha x y] updates [y <- y + alpha * x]. *)
val axpy : alpha:float -> t -> t -> unit

val dot : t -> t -> float

(** Euclidean norm. *)
val norm2 : t -> float

val norm_inf : t -> float
val norm1 : t -> float

(** Euclidean distance between two vectors. *)
val dist2 : t -> t -> float

(** Relative l2 error of [approx] against [exact]; absolute error when
    [exact] is the zero vector. *)
val rel_err : exact:t -> approx:t -> float

(** [approx_equal ?tol a b] tests [‖a-b‖ ≤ tol·(1+‖a‖)]. Default
    [tol = 1e-9]. *)
val approx_equal : ?tol:float -> t -> t -> bool

val concat : t list -> t
val slice : t -> pos:int -> len:int -> t

(** [blit ~src ~dst ~pos] copies all of [src] into [dst] starting at
    [pos]. *)
val blit : src:t -> dst:t -> pos:int -> unit

(** Index of the entry with largest magnitude. *)
val max_abs_index : t -> int

(** True when no entry is [nan] or infinite. *)
val is_finite : t -> bool
