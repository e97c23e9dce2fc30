(* Typed error taxonomy for the AT-NMOR recovery layer.

   Every recoverable numerical failure in the stack is classified into
   one of these variants, each carrying its location (subsystem +
   operation) and enough numeric context to act on: retry policies
   dispatch on the variant, reports render it, and the CLI maps it to
   an exit code. Layers keep their historical exceptions
   ([Lu.Singular], [Ksolve.Near_singular], [Types.Step_failure], ...)
   for compatibility; [try_*] entry points and the policy engine
   translate them into this type. *)

type location = { subsystem : string; operation : string }

type t =
  | Singular_solve of { loc : location; shift : float; distance : float }
      (* an (approximately) singular linear solve; [shift] is the
         expansion/shift point when the solve was shifted (NaN
         otherwise), [distance] the observed distance from
         singularity (pivot magnitude, pole distance, ...) *)
  | Step_failure of { loc : location; time : float; detail : string }
      (* a time integrator could not advance past [time] *)
  | Non_hurwitz of { loc : location; max_re : float }
      (* a stability-requiring method met eigenvalues with
         max Re = [max_re] >= -1e-9 *)
  | Contract_violation of { loc : location; detail : string }
      (* a numerical contract (finiteness, orthonormality, residual
         bound) failed *)
  | Convergence_failure of { loc : location; detail : string }
      (* an iteration (Newton, Jacobi sweeps, QR iteration) hit its
         budget without converging *)
  | Budget_exhausted of { loc : location; attempts : int; last : t option }
      (* the retry/fallback policy ran out of attempts; [last] is the
         final underlying failure *)
  | Budget_exceeded of
      { loc : location; resource : string; used : float; limit : float }
      (* a compute budget ran out mid-kernel: [resource] is
         "deadline" | "ode-steps",
         [used]/[limit] in that resource's unit (absolute Clock seconds
         for the deadline, counts otherwise) *)

exception Error of t

let loc ~subsystem ~operation = { subsystem; operation }

let location = function
  | Singular_solve { loc; _ }
  | Step_failure { loc; _ }
  | Non_hurwitz { loc; _ }
  | Contract_violation { loc; _ }
  | Convergence_failure { loc; _ }
  | Budget_exhausted { loc; _ }
  | Budget_exceeded { loc; _ } ->
    loc

let kind = function
  | Singular_solve _ -> "singular-solve"
  | Step_failure _ -> "step-failure"
  | Non_hurwitz _ -> "non-hurwitz"
  | Contract_violation _ -> "contract-violation"
  | Convergence_failure _ -> "convergence-failure"
  | Budget_exhausted _ -> "budget-exhausted"
  | Budget_exceeded _ -> "budget-exceeded"

let location_string l = l.subsystem ^ "." ^ l.operation

let rec to_string err =
  let at = location_string (location err) in
  match err with
  | Singular_solve { shift; distance; _ } ->
    if Float.is_nan shift then
      Printf.sprintf "%s: singular solve (distance %.3e)" at distance
    else
      Printf.sprintf "%s: singular solve at shift %g (distance %.3e)" at
        shift distance
  | Step_failure { time; detail; _ } ->
    if Float.is_nan time then Printf.sprintf "%s: %s" at detail
    else Printf.sprintf "%s: %s (t = %g)" at detail time
  | Non_hurwitz { max_re; _ } ->
    Printf.sprintf "%s: linear part not Hurwitz (max Re = %g)" at max_re
  | Contract_violation { detail; _ } ->
    Printf.sprintf "%s: contract violation (%s)" at detail
  | Convergence_failure { detail; _ } ->
    Printf.sprintf "%s: failed to converge (%s)" at detail
  | Budget_exhausted { attempts; last; _ } ->
    Printf.sprintf "%s: recovery budget exhausted after %d attempt(s)%s" at
      attempts
    @@ (match last with
       | Some e -> "; last failure: " ^ to_string e
       | None -> "")
  | Budget_exceeded { resource; used; limit; _ } ->
    Printf.sprintf "%s: %s budget exceeded (used %g of %g)" at resource used
      limit

let raise_error err = raise (Error err)

let () =
  Printexc.register_printer (function
    | Error err -> Some ("Robust.Error: " ^ to_string err)
    | _ -> None)
