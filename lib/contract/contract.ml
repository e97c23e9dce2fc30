(* Numerical contracts for the AT-NMOR pipeline.

   Every dimension-sensitive kernel in the stack (Kronecker powers/sums,
   projection bases, associated-transform state spaces) funnels its
   preconditions through this module so that violations fail loudly, at
   the boundary, with one message format:

     Invalid_argument "<ctx>: <rule> (<details>)"

   where <ctx> is "Module.function" and <rule> is one of
   "dimension mismatch", "not square", "kron incompatibility",
   "non-finite value", "basis not orthonormal".

   Cheap shape checks (require_dims, require_len, require_square,
   require_kron_compat) always run: they are O(1) against the cost of
   the operations they guard. Expensive value checks (require_finite,
   require_orthonormal) only run when enabled — via the VMOR_CHECKS
   environment variable ("1", "true", "on", "yes") or [set_checks] —
   so production hot paths pay nothing for them.

   This module is also the one blessed home of exact floating-point
   comparison: the repo linter (tools/lint) forbids polymorphic
   [=]/[<>] against float literals everywhere else, and code is
   expected to call [is_zero]/[nonzero]/[float_equal]/[approx_eq]
   instead. *)

(* ---- VMOR_CHECKS toggle ---- *)

(* Atomic so tests may flip checks on a domain while kernels race on
   another; a plain ref would be an unsynchronized shared write. *)
let override : bool option Atomic.t = Atomic.make None

let set_checks b = Atomic.set override b

let env_enabled () =
  match Sys.getenv_opt "VMOR_CHECKS" with
  | Some ("1" | "true" | "on" | "yes") -> true
  | Some _ | None -> false

let checks_enabled () =
  match Atomic.get override with Some b -> b | None -> env_enabled ()

(* ---- blessed exact float comparisons ---- *)

(* Exact comparison against zero: the sparsity guard of dense kernels
   ("skip this row if the coefficient is exactly 0.0"). Deliberately
   bit-exact — a tolerance here would silently drop small entries. *)
let is_zero (x : float) = x = 0.0

let nonzero (x : float) = not (x = 0.0)

(* Bit-exact float equality (NaN unequal to everything, like [=]). *)
let float_equal (x : float) (y : float) = x = y

(* Tolerance comparison, symmetric-relative with an absolute floor. *)
let approx_eq ?(tol = 1e-12) x y =
  Float.abs (x -. y) <= tol *. (1.0 +. Float.abs x +. Float.abs y)

(* Purely relative comparison against a reference [x], no absolute
   floor: for quantities on any scale, such as step sizes, where
   approx_eq's floor of 1 would equate any two values far below 1. *)
let close_rel ~rtol x y = Float.abs (x -. y) <= rtol *. Float.abs x

(* ---- failure plumbing ---- *)

let fail ctx rule details =
  invalid_arg (Printf.sprintf "%s: %s (%s)" ctx rule details)

let dims_str (r, c) = Printf.sprintf "%dx%d" r c

(* ---- cheap shape contracts (always on) ---- *)

let require ctx cond rule details = if not cond then fail ctx rule details

let require_dims ctx ~expected ~actual =
  if expected <> actual then
    fail ctx "dimension mismatch"
      (Printf.sprintf "expected %s, got %s" (dims_str expected)
         (dims_str actual))

let require_len ctx ~expected ~actual =
  if expected <> actual then
    fail ctx "dimension mismatch"
      (Printf.sprintf "expected length %d, got %d" expected actual)

let require_same_len ctx a b =
  if a <> b then
    fail ctx "dimension mismatch" (Printf.sprintf "length %d vs %d" a b)

let require_square ctx (r, c) =
  if r <> c then fail ctx "not square" (dims_str (r, c))

(* A flat Kronecker operand of [len] must reshape to [rows] x [cols]
   (e.g. an n x n² quadratic coupling applied to x ⊗ x of length n²). *)
let require_kron_compat ctx ~rows ~cols ~len =
  if rows * cols <> len then
    fail ctx "kron incompatibility"
      (Printf.sprintf "length %d does not factor as %s" len
         (dims_str (rows, cols)))

(* ---- expensive value contracts (VMOR_CHECKS-gated) ---- *)

let find_nonfinite (data : float array) =
  let bad = ref (-1) in
  let n = Array.length data in
  let i = ref 0 in
  while !bad < 0 && !i < n do
    if not (Float.is_finite data.(!i)) then bad := !i;
    incr i
  done;
  !bad

let require_finite ctx (data : float array) =
  if checks_enabled () then begin
    let bad = find_nonfinite data in
    if bad >= 0 then
      fail ctx "non-finite value"
        (Printf.sprintf "%h at index %d of %d" data.(bad) bad
           (Array.length data))
  end

(* V is rows x cols, row-major in [data]; checks ‖VᵀV - I‖_max <= tol.
   O(rows · cols²) — strictly VMOR_CHECKS territory at projection-basis
   boundaries. *)
let require_orthonormal ?(tol = 1e-8) ctx ~rows ~cols (data : float array) =
  if checks_enabled () then begin
    require_len ctx ~expected:(rows * cols) ~actual:(Array.length data);
    let worst = ref 0.0 and wi = ref 0 and wj = ref 0 in
    for i = 0 to cols - 1 do
      for j = i to cols - 1 do
        let s = ref 0.0 in
        for r = 0 to rows - 1 do
          s := !s +. (data.((r * cols) + i) *. data.((r * cols) + j))
        done;
        let target = if i = j then 1.0 else 0.0 in
        let dev = Float.abs (!s -. target) in
        if dev > !worst then begin
          worst := dev;
          wi := i;
          wj := j
        end
      done
    done;
    if !worst > tol then
      fail ctx "basis not orthonormal"
        (Printf.sprintf "|VtV - I| = %.3e at (%d,%d), tol %.1e" !worst !wi !wj
           tol)
  end
