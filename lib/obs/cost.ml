(* Deterministic work accounting: nominal flops and bytes per kernel.

   The cost counters are slots [Registry.cost_base ..] of the
   per-domain [Registry] store (DESIGN.md section 8), so a charge is
   one atomic-flag load, one DLS fetch and a few bounds-checked
   stores, and the merge after [Domain.join] is exact.
   [Metrics.set_enabled] switches charges on and off with every other
   recording operation.

   Charges are *nominal*: closed-form functions of the operand
   dimensions at each kernel call (2mn for an m-by-n matvec, 2n^3/3
   for an LU factorization), never of data values, never of observer
   state.  That makes every counter bit-identical across repeated
   runs, across domain counts, and across traced vs untraced
   executions — which is what lets the bench gate pin the whole block
   with exact zero-tolerance bands (DESIGN.md section 15).  Tick sites
   follow a single-charge policy: leaf kernels (Mat, Lu, Qr, Ksolve,
   Sptensor) charge themselves; composite layers charge only work
   that does not route through an instrumented leaf. *)

type counter =
  | Flops_axpy
  | Flops_matvec
  | Flops_matmul
  | Flops_lu
  | Flops_trisolve
  | Flops_schur
  | Flops_tensor
  | Flops_ortho
  | Flops_ode_rhs
  | Flops_stepper
  | Bytes_read
  | Bytes_written

let index c =
  Registry.cost_base
  +
  match c with
  | Flops_axpy -> 0
  | Flops_matvec -> 1
  | Flops_matmul -> 2
  | Flops_lu -> 3
  | Flops_trisolve -> 4
  | Flops_schur -> 5
  | Flops_tensor -> 6
  | Flops_ortho -> 7
  | Flops_ode_rhs -> 8
  | Flops_stepper -> 9
  | Bytes_read -> 10
  | Bytes_written -> 11

let name = function
  | Flops_axpy -> "flops_axpy"
  | Flops_matvec -> "flops_matvec"
  | Flops_matmul -> "flops_matmul"
  | Flops_lu -> "flops_lu"
  | Flops_trisolve -> "flops_trisolve"
  | Flops_schur -> "flops_schur"
  | Flops_tensor -> "flops_tensor"
  | Flops_ortho -> "flops_ortho"
  | Flops_ode_rhs -> "flops_ode_rhs"
  | Flops_stepper -> "flops_stepper"
  | Bytes_read -> "bytes_read"
  | Bytes_written -> "bytes_written"

let all =
  [ Flops_axpy; Flops_matvec; Flops_matmul; Flops_lu; Flops_trisolve;
    Flops_schur; Flops_tensor; Flops_ortho; Flops_ode_rhs; Flops_stepper;
    Bytes_read; Bytes_written ]

let of_name s = List.find_opt (fun c -> name c = s) all

let is_flops = function Bytes_read | Bytes_written -> false | _ -> true

let bytes_read = index Bytes_read
let bytes_written = index Bytes_written

(* [read]/[written] are in 8-byte floating-point words; the bytes
   counters store bytes.  One DLS fetch covers all three stores. *)
let charge ?(read = 0) ?(written = 0) c flops =
  if Atomic.get Registry.enabled then begin
    let a = (Domain.DLS.get Registry.key).slots in
    let i = index c in
    a.(i) <- a.(i) + flops;
    if read <> 0 then a.(bytes_read) <- a.(bytes_read) + (8 * read);
    if written <> 0 then a.(bytes_written) <- a.(bytes_written) + (8 * written)
  end

let get c = (Registry.snapshot ()).(index c)

type snapshot = Registry.snapshot

let snapshot = Registry.snapshot
let diff = Registry.deltas index all
let since snap = diff snap (Registry.snapshot ())

let total_flops deltas =
  List.fold_left (fun acc (c, n) -> if is_flops c then acc + n else acc) 0 deltas

let total_bytes deltas =
  List.fold_left
    (fun acc (c, n) -> if is_flops c then acc else acc + n)
    0 deltas
