(* Numerical-health telemetry.

   The span/counter layer says where the time went; this layer says
   whether the numerics can be trusted.  Each [record] is a typed
   diagnostic produced at a well-defined point of a reduction or
   simulation: condition estimates for the shifted solves behind the
   associated transforms, ODE rejection streaks, a-posteriori
   moment-match residuals of a finished ROM, and POD spectrum
   truncation energy.

   Records ride the existing [Sink] as point events named
   ["health.<kind>"] with a ["key=value ..."] detail string, so a
   single JSONL trace carries timing, counters, recovery actions and
   numerical health together.  The null-sink fast path is preserved:
   producers must guard any nontrivial diagnostic computation with
   [active ()], and [emit] itself is a no-op under the null sink.

   Alongside the (sink-gated) events, [emit] keeps the last moment
   residual per order and the last POD energy as [Metrics] gauges, so
   the [--metrics] table shows them without trace parsing. *)

type record =
  | Cond of {
      context : string;  (* which operator, e.g. "assoc.ksum.k1" *)
      dim : int;
      cond : float;  (* condition estimate *)
    }
  | Ode_streak of {
      context : string;  (* integrator name *)
      time : float;  (* model time where the streak ended *)
      length : int;  (* consecutive rejected steps *)
    }
  | Moment_residual of {
      k : int;  (* transfer-function order: 1, 2 or 3 *)
      s0 : float;  (* expansion point the ROM was matched at *)
      residual : float;  (* ||H_k^full(s0) - H_k^rom(s0)|| / ||H_k^full(s0)|| *)
    }
  | Freq_error of {
      omega : float;  (* angular frequency of the sample point *)
      rel_err : float;  (* relative H1 error at s0 + i*omega *)
    }
  | Pod_spectrum of {
      retained : int;
      total : int;  (* snapshot count = available modes *)
      energy : float;  (* fraction of spectral energy captured *)
      tail : float;  (* first discarded eigenvalue / largest (decay depth) *)
    }

let active () = Sink.is_active ()

let name_of = function
  | Cond _ -> "health.cond"
  | Ode_streak _ -> "health.ode_streak"
  | Moment_residual _ -> "health.moment_residual"
  | Freq_error _ -> "health.freq_error"
  | Pod_spectrum _ -> "health.pod"

(* Detail strings are space-separated [key=value] pairs; string values
   are plain tokens (contexts are dotted identifiers, never spaced).
   [%.9g] round-trips every double we care about through the JSONL
   sink and back out of [parse_detail]. *)
let detail_of = function
  | Cond { context; dim; cond } ->
    Printf.sprintf "context=%s dim=%d cond=%.9g" context dim cond
  | Ode_streak { context; time; length } ->
    Printf.sprintf "context=%s time=%.9g length=%d" context time length
  | Moment_residual { k; s0; residual } ->
    Printf.sprintf "k=%d s0=%.9g residual=%.9g" k s0 residual
  | Freq_error { omega; rel_err } ->
    Printf.sprintf "omega=%.9g rel_err=%.9g" omega rel_err
  | Pod_spectrum { retained; total; energy; tail } ->
    Printf.sprintf "retained=%d total=%d energy=%.9g tail=%.9g"
      retained total energy tail

let parse_detail s =
  String.split_on_char ' ' s
  |> List.filter_map (fun tok ->
         match String.index_opt tok '=' with
         | None -> None
         | Some i ->
           Some
             ( String.sub tok 0 i,
               String.sub tok (i + 1) (String.length tok - i - 1) ))

let field fields key = List.assoc_opt key fields

let float_field fields key =
  match field fields key with
  | None -> None
  | Some v -> float_of_string_opt v

let set_gauge = function
  | Moment_residual { k; residual; _ } ->
    Metrics.set_gauge (Printf.sprintf "health.moment_residual.h%d" k) residual
  | Pod_spectrum { energy; _ } -> Metrics.set_gauge "health.pod_energy" energy
  | Cond _ | Ode_streak _ | Freq_error _ -> ()

let emit r =
  if active () then begin
    set_gauge r;
    Span.event ~detail:(detail_of r) (name_of r)
  end

(* ------------------------------------------------------------------ *)
(* Recovering records from a parsed trace (used by Trace and so by    *)
(* `vmor report`).  Unknown or malformed events yield [None].         *)

let of_event ~name ~detail : record option =
  let fields = parse_detail detail in
  let f = float_field fields in
  let i key = Option.map int_of_float (f key) in
  let str key = field fields key in
  match name with
  | "health.cond" -> (
    match (str "context", i "dim", f "cond") with
    | Some context, Some dim, Some cond -> Some (Cond { context; dim; cond })
    | _ -> None)
  | "health.ode_streak" -> (
    match (str "context", f "time", i "length") with
    | Some context, Some time, Some length ->
      Some (Ode_streak { context; time; length })
    | _ -> None)
  | "health.moment_residual" -> (
    match (i "k", f "s0", f "residual") with
    | Some k, Some s0, Some residual -> Some (Moment_residual { k; s0; residual })
    | _ -> None)
  | "health.freq_error" -> (
    match (f "omega", f "rel_err") with
    | Some omega, Some rel_err -> Some (Freq_error { omega; rel_err })
    | _ -> None)
  | "health.pod" -> (
    match (i "retained", i "total", f "energy", f "tail") with
    | Some retained, Some total, Some energy, Some tail ->
      Some (Pod_spectrum { retained; total; energy; tail })
    | _ -> None)
  | _ -> None
