(** Numerical contracts: shape/sanity combinators shared by the whole
    AT-NMOR stack, plus the blessed exact-float comparison helpers
    required by the repo linter (tools/lint).

    All failures raise [Invalid_argument] with the documented message
    format ["<ctx>: <rule> (<details>)"]. Cheap shape contracts always
    run; [require_finite]/[require_finite2]/[require_orthonormal] only
    run when checks are enabled (the [VMOR_CHECKS] environment variable
    set to "1"/"true"/"on"/"yes", or a [set_checks] override). *)

(** {1 VMOR_CHECKS toggle} *)

val checks_enabled : unit -> bool
(** Whether the expensive value contracts are active. *)

val set_checks : bool option -> unit
(** [set_checks (Some b)] overrides the [VMOR_CHECKS] environment
    variable (for tests); [set_checks None] restores it. *)

(** {1 Blessed exact float comparisons} *)

val is_zero : float -> bool
(** Bit-exact [x = 0.0] — the sparsity guard of dense kernels. *)

val nonzero : float -> bool
(** [not (is_zero x)]. *)

val float_equal : float -> float -> bool
(** Bit-exact float equality ([=] semantics: NaN equals nothing). *)

val approx_eq : ?tol:float -> float -> float -> bool
(** Symmetric relative comparison with absolute floor:
    [|x - y| <= tol * (1 + |x| + |y|)]. Default [tol] 1e-12. *)

val close_rel : rtol:float -> float -> float -> bool
(** [close_rel ~rtol x y] is [|x - y| <= rtol * |x|]: relative to the
    reference [x], with no absolute floor, for values on any scale. *)

(** {1 Cheap shape contracts (always on)} *)

val require : string -> bool -> string -> string -> unit
(** [require ctx cond rule details] raises [Invalid_argument] in the
    documented format when [cond] is false. *)

val require_dims : string -> expected:int * int -> actual:int * int -> unit
(** Exact (rows, cols) expectation. *)

val require_len : string -> expected:int -> actual:int -> unit
(** Exact vector-length expectation. *)

val require_same_len : string -> int -> int -> unit
(** Two vectors must agree in length. *)

val require_square : string -> int * int -> unit
(** The operand must be square. *)

val require_kron_compat : string -> rows:int -> cols:int -> len:int -> unit
(** A flat Kronecker operand of length [len] must reshape to
    [rows] x [cols] (i.e. [rows * cols = len]). *)

(** {1 Expensive value contracts (VMOR_CHECKS-gated)} *)

val require_finite : string -> float array -> unit
(** No NaN/Inf anywhere in the payload. *)

val require_orthonormal :
  ?tol:float -> string -> rows:int -> cols:int -> float array -> unit
(** Row-major [rows] x [cols] basis V must satisfy
    [|VᵀV - I|_max <= tol] (default 1e-8). O(rows·cols²). *)
