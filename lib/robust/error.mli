(** Typed error taxonomy for the recovery layer.

    Every recoverable numerical failure in the AT-NMOR stack maps into
    {!t}: retry policies dispatch on the variant, {!Report} renders it,
    and the CLI maps it to an exit code. The historical per-layer
    exceptions ([Lu.Singular], [Ksolve.Near_singular],
    [Types.Step_failure], ...) remain; [try_*] entry points and
    {!Policy} translate them into this type. *)

type location = { subsystem : string; operation : string }

type t =
  | Singular_solve of { loc : location; shift : float; distance : float }
      (** An (approximately) singular linear solve. [shift] is the
          expansion/shift point for shifted solves (NaN for plain
          solves); [distance] the observed distance from singularity. *)
  | Step_failure of { loc : location; time : float; detail : string }
      (** A time integrator could not advance past [time]. *)
  | Non_hurwitz of { loc : location; max_re : float }
      (** A stability-requiring method met spectral abscissa
          [max_re] >= -1e-9 ([La.Lyapunov.solve]'s Hurwitz rule). *)
  | Contract_violation of { loc : location; detail : string }
      (** A numerical contract (finiteness, orthonormality, residual
          bound) failed. *)
  | Convergence_failure of { loc : location; detail : string }
      (** An iteration hit its budget without converging. *)
  | Budget_exhausted of { loc : location; attempts : int; last : t option }
      (** The retry/fallback policy ran out of attempts; [last] is the
          final underlying failure. *)
  | Budget_exceeded of
      { loc : location; resource : string; used : float; limit : float }
      (** A compute budget ({!Budget}) ran out mid-kernel. [resource]
          is ["deadline"] or ["ode-steps"]; [used]/[limit] are in that
          resource's unit (absolute [Obs.Clock] seconds for the
          deadline, counts otherwise). *)

exception Error of t
(** The exception form, for call sites that cannot return [result]. A
    printer is registered with [Printexc]. *)

val loc : subsystem:string -> operation:string -> location

val location : t -> location

val kind : t -> string
(** Short stable tag ("singular-solve", "step-failure", ...) for
    dispatch and test assertions. *)

val location_string : location -> string

val to_string : t -> string
(** One-line human rendering. *)

val raise_error : t -> 'a
(** [raise (Error err)]. *)
