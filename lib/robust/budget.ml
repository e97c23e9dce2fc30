(* Compute budgets and cooperative cancellation.

   A budget bounds one reduction/simulation: a wall-clock deadline
   (absolute [Obs.Clock] time) plus a limit on ODE steps.  The budget
   in force is held in a process-wide ambient slot so hot kernels do
   not need a budget parameter threaded through every signature:
   [check]/[poll]/[tick_ode_step] poll the slot, and the fast path
   with no budget installed is a single atomic load and a physical
   comparison against [None].

   Exhaustion surfaces as the typed [Error.Budget_exceeded], which the
   existing degradation machinery (reducer classification, Atmor /
   Autoselect best-so-far, ODE partial series) converts into
   best-effort results rather than a killed process.

   Determinism: tests advance [skew] (virtual clock skew, see
   [Faultify.Stall]) instead of sleeping, so every cancellation point
   fires at an exact scheduled kernel call.  The skew is reset on each
   install and restored with the previous budget, so an outer deadline
   a stall has spent stays spent after a nested install returns. *)

type t = {
  deadline : float;  (* absolute Clock time; infinity = unbounded *)
  allotted : float;  (* the relative seconds [make] was given, for
                        reporting "used X of Y" in wall-clock terms *)
  max_ode_steps : int;  (* max_int = unbounded *)
  binding : bool;
      (* any limit at all? A budget that can never bind skips the
         slow path entirely — no counter bump, no deadline compare —
         so installing an unbounded budget costs the same as none, and
         [budget_poll] counts only polls a budget could actually
         stop. *)
  polls : int Atomic.t;
      (* slow-path polls against this budget, for amortizing the
         clock read (see [strided_deadline]) *)
  spent : bool Atomic.t;
      (* latched once a deadline poll observes exhaustion: the
         deadline is monotone, so every later poll fails straight
         away instead of waiting for its stride slot — a hopeless
         deadline cannot let a retry slip through the gap *)
  ode_steps : int Atomic.t;
}

(* The ambient slot and the virtual clock skew.  Both are atomics, so
   installs and polls are domain-safe without a lock. *)
let current : t option Atomic.t = Atomic.make None
let skew : float Atomic.t = Atomic.make 0.0

let make ?(deadline = infinity) ?(max_ode_steps = max_int) () =
  if deadline <= 0.0 then
    invalid_arg "Budget.make: deadline must be positive";
  if max_ode_steps < 0 then
    invalid_arg "Budget.make: limits must be nonnegative";
  let abs_deadline =
    if deadline = infinity then infinity else Obs.Clock.now () +. deadline
  in
  {
    deadline = abs_deadline;
    allotted = deadline;
    max_ode_steps;
    binding = deadline < infinity || max_ode_steps < max_int;
    polls = Atomic.make 0;
    spent = Atomic.make false;
    ode_steps = Atomic.make 0;
  }

let unbounded () = make ()

(* [None] means "leave the ambient budget alone", so a library layer
   passing through an absent [Options.budget] does not clear a budget
   the CLI installed around the whole command. *)
let with_budget opt f =
  match opt with
  | None -> f ()
  | Some b ->
      let prev = Atomic.get current and prev_skew = Atomic.get skew in
      Atomic.set skew 0.0;
      Atomic.set current (Some b);
      Obs.Span.event "budget.install"
        ~detail:
          (if not b.binding then "unbounded"
           else if b.deadline = infinity then "counted-only"
           else Printf.sprintf "deadline=%g" b.allotted);
      Fun.protect
        ~finally:(fun () ->
          Atomic.set current prev;
          Atomic.set skew prev_skew)
        f

let advance_skew dt = Atomic.set skew (Atomic.get skew +. dt)

let now () = Obs.Clock.now () +. Atomic.get skew

(* ---------- polls ---------- *)

let exceeded_error site resource ~used ~limit =
  Obs.Span.event "budget.exceeded"
    ~detail:(Printf.sprintf "%s %s" resource site);
  Error.Budget_exceeded
    { loc = Error.loc ~subsystem:"budget" ~operation:site; resource; used;
      limit }

(* Deadline poll against an installed budget.  Skips the clock read
   entirely for counted-only budgets, so an unbounded install costs
   one atomic load + one counter increment per poll. *)
let deadline_spent b site =
  if b.deadline = infinity then None
  else
    let t = now () in
    if t > b.deadline then
      (* report elapsed-vs-allotted seconds, not absolute Clock time *)
      Some
        (exceeded_error site "deadline"
           ~used:(b.allotted +. (t -. b.deadline))
           ~limit:b.allotted)
    else None

(* Deadline poll that amortizes the clock read: the clock is the
   expensive part of the slow path (a [gettimeofday] costs ~3x the
   counter bump), so only every [stride]-th poll against a given
   budget reads it.  Polls are tile/iteration-grained, so the added
   detection latency is a handful of tiles — far below any realistic
   deadline.  The first poll always checks (stride phase 0), and a
   nonzero virtual skew ([Faultify.Stall]) forces every poll to
   check, so scheduled-stall tests stay exact. *)
let stride_mask = 31

let strided_deadline b site =
  if b.deadline = infinity then None
  else if
    Atomic.get b.spent
    || Atomic.fetch_and_add b.polls 1 land stride_mask = 0
    || Atomic.get skew > 0.0 (* virtual stall active: check every poll *)
  then
    match deadline_spent b site with
    | Some _ as r ->
        Atomic.set b.spent true;
        r
    | None -> None
  else None

let poll site =
  match Atomic.get current with
  | None -> None
  | Some b ->
      if not b.binding then None
      else begin
        Obs.Metrics.incr Obs.Metrics.Budget_poll;
        strided_deadline b site
      end

let check site =
  match poll site with None -> () | Some e -> Error.raise_error e

let tick_ode_step site =
  match Atomic.get current with
  | None -> None
  | Some b ->
      if not b.binding then None
      else begin
        Obs.Metrics.incr Obs.Metrics.Budget_poll;
        let used = Atomic.fetch_and_add b.ode_steps 1 + 1 in
        if used > b.max_ode_steps then
          Some
            (exceeded_error site "ode-steps" ~used:(float_of_int used)
               ~limit:(float_of_int b.max_ode_steps))
        else strided_deadline b site
      end

(* Is a failure (or the terminal failure inside a [Budget_exhausted]
   wrapper) a budget exhaustion?  The CLI uses this to pick exit code
   5 over the generic numerical 3. *)
let rec is_budget_error (e : Error.t) =
  match e with
  | Error.Budget_exceeded _ -> true
  | Error.Budget_exhausted { last = Some l; _ } -> is_budget_error l
  | _ -> false
