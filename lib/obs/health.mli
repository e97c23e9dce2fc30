(** Numerical-health telemetry.

    Typed diagnostic records for the quantities that decide whether an
    AT-NMOR run can be trusted: condition estimates of the shifted
    solves, ODE rejection streaks, a-posteriori moment-match
    residuals, and POD spectrum truncation energy.

    Records flow through the active {!Sink} as point events named
    ["health.<kind>"] with a ["key=value ..."] detail payload; the
    moment residuals and POD energy are also kept as {!Metrics}
    gauges.
    With the null sink installed, {!emit} is a no-op; producers must
    additionally guard any expensive diagnostic {e computation} behind
    {!active} so the disabled-observability overhead budget holds. *)

type record =
  | Cond of {
      context : string;  (** which operator, e.g. ["assoc.ksum.k1"] *)
      dim : int;
      cond : float;  (** condition estimate *)
    }
  | Ode_streak of {
      context : string;  (** integrator name *)
      time : float;  (** model time where the streak ended *)
      length : int;  (** consecutive rejected steps *)
    }
  | Moment_residual of {
      k : int;  (** transfer-function order: 1, 2 or 3 *)
      s0 : float;  (** expansion point the ROM was matched at *)
      residual : float;
          (** [||H_k^full(s0) - H_k^rom(s0)|| / ||H_k^full(s0)||] *)
    }
  | Freq_error of {
      omega : float;  (** angular frequency of the sample point *)
      rel_err : float;  (** relative H1 error at [s0 + i*omega] *)
    }
  | Pod_spectrum of {
      retained : int;
      total : int;  (** snapshot count = available modes *)
      energy : float;  (** fraction of spectral energy captured *)
      tail : float;
          (** first discarded eigenvalue over the largest (decay depth) *)
    }

val active : unit -> bool
(** [true] iff a non-null sink is installed.  Guard any nontrivial
    diagnostic computation (condition estimators, residual solves)
    behind this. *)

val emit : record -> unit
(** Deliver a record to the active sink, and set the {!Metrics} gauge
    of a moment residual or POD spectrum.  No-op under the null sink. *)

val of_event : name:string -> detail:string -> record option
(** Reconstruct a record from a trace event; [None] for non-health or
    malformed events. *)
