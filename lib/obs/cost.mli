(** Deterministic work accounting: nominal flop and byte counters.

    The cost layer is [Metrics]' sibling over the same per-domain
    {!Registry} store, but counts *work* instead of events:
    floating-point operations and bytes moved, charged as closed-form
    ({e nominal}) functions of operand dimensions at each kernel call.
    Because a charge never depends on data values, allocator behavior,
    observer state or the domain count, every counter is bit-identical
    across repeated runs, across [--domains 1] vs [--domains 4], and
    across traced vs untraced executions; the bench gate pins the
    whole block with exact zero-tolerance bands.  {!Metrics.set_enabled}
    switches charges with every other recording operation.  See
    DESIGN.md section 15 for the tick-site placement policy (single
    charge: leaf kernels charge themselves, composites charge only
    un-leafed work). *)

type counter =
  | Flops_axpy  (** vector add / scale / dot / norm work *)
  | Flops_matvec  (** dense matrix-vector products *)
  | Flops_matmul  (** dense matrix-matrix products *)
  | Flops_lu  (** LU factorizations *)
  | Flops_trisolve  (** triangular back/forward substitution *)
  | Flops_schur  (** real Schur factorization *)
  | Flops_tensor  (** Kronecker-sum mode products, sparse tensor applies *)
  | Flops_ortho  (** Householder QR and Gram-Schmidt orthogonalization *)
  | Flops_ode_rhs  (** right-hand-side evaluations (un-leafed part) *)
  | Flops_stepper  (** ODE stepper combination and error-control work *)
  | Bytes_read  (** bytes read by instrumented kernels *)
  | Bytes_written  (** bytes written by instrumented kernels *)

val all : counter list
(** Every counter, in rendering order. *)

val name : counter -> string
(** Stable snake_case identifier, used in JSONL [cost.*] members and
    in the bench [cost] block. *)

val of_name : string -> counter option
(** Inverse of {!name}; [None] for unknown identifiers (forward
    compatibility when reading newer traces). *)

val charge : ?read:int -> ?written:int -> counter -> int -> unit
(** [charge c flops] adds [flops] to [c] on the calling domain's
    accumulator; [?read]/[?written] additionally move that many
    {e 8-byte words} onto {!Bytes_read}/{!Bytes_written}.  All
    arguments must be nominal — computed from dimensions, never from
    data — or the exact-band gate and the determinism tests will
    fail. *)

val get : counter -> int
(** Merged process-wide total for one counter. *)

type snapshot = Registry.snapshot
(** Merged totals at a point in time, for delta computation (the same
    snapshot type as {!Metrics.snapshot}). *)

val snapshot : unit -> snapshot

val since : snapshot -> (counter * int) list
(** Nonzero deltas accumulated since the snapshot, in {!all} order. *)

val diff : snapshot -> snapshot -> (counter * int) list
(** [diff snap now]: nonzero cost deltas between two snapshots. *)

val total_flops : (counter * int) list -> int
(** Sum of the [Flops_*] entries of a delta list. *)

val total_bytes : (counter * int) list -> int
(** Sum of the byte entries of a delta list. *)
