(** Compute budgets and cooperative cancellation.

    A budget bounds one reduction or simulation with a wall-clock
    deadline (measured by {!Obs.Clock}) and a limit on ODE steps.  The
    budget in force lives in a process-wide ambient slot ({!with_budget})
    rather than a parameter threaded through every kernel signature;
    hot loops poll it with {!check} / {!poll} / {!tick_ode_step}, whose
    fast path with no budget installed is one atomic load and a [None]
    comparison.

    Exhaustion raises (or returns) the typed
    {!Error.Budget_exceeded}; the degradation machinery turns it into
    best-effort results — a best-so-far ROM with a degradation report
    entry, a partial time series — instead of a killed process.  See
    DESIGN.md §13.

    Each slow-path poll — a poll against a budget with at least one
    finite limit — increments the [budget_poll] counter and, on
    exhaustion, emits a [budget.exceeded] trace event, so traces show
    where budgets bind.  A budget with no finite limit at all can
    never bind, so its polls skip the slow path entirely: installing
    {!unbounded} costs the same as installing nothing. *)

type t
(** One budget: an absolute deadline plus a shared ODE-step counter.
    The counter is cumulative across every kernel run under the same
    installed budget. *)

val make :
  ?deadline:float ->
  ?max_ode_steps:int ->
  unit ->
  t
(** [make ~deadline:sec ()] builds a budget expiring [sec] seconds
    from now ([infinity], the default, means no deadline);
    [max_ode_steps] defaults to [max_int] (unbounded).  Raises
    [Invalid_argument] on a nonpositive deadline or negative limit. *)

val unbounded : unit -> t
(** A budget that never exhausts — and, having no finite limit, is
    never polled past the ambient load: no [budget_poll] increments,
    no clock reads.  The [budget_overhead] bench compares exactly this
    install against no budget at all. *)

val with_budget : t option -> (unit -> 'a) -> 'a
(** [with_budget (Some b) f] installs [b] as the ambient budget around
    [f] (resetting the virtual clock skew) and restores the previous
    budget and skew afterwards, even on exceptions.  [with_budget None f] runs
    [f] without touching the ambient slot, so an absent
    [Options.budget] does not clear a budget installed by the CLI. *)

val check : string -> unit
(** [check site] polls the deadline; raises [Error
    (Budget_exceeded _)] when it is spent.  [site] names the polling
    kernel (e.g. ["mor.Atmor.reduce"]) and becomes the error's
    location.

    Deadline polls amortize the clock read: only every 32nd poll
    against a given budget reads the clock (the first always does),
    so detection lags exhaustion by at most a handful of tiles.
    Exhaustion latches — once one poll observes the deadline spent,
    every later poll fails immediately, so a retry cannot slip
    through a stride gap.  Under a nonzero virtual skew
    ({!advance_skew}, i.e. {!Faultify.Stall}) every poll checks,
    keeping scheduled-stall tests exact. *)

val poll : string -> Error.t option
(** Non-raising {!check}, for kernels that must return a best-effort
    result instead of unwinding (e.g. [Autoselect]'s anytime growth,
    which truncates a series on exhaustion). *)

val tick_ode_step : string -> Error.t option
(** Count one integrator step attempt and poll deadline + step limit;
    non-raising — integrators return the truncated series flagged
    [partial]. *)

val advance_skew : float -> unit
(** Advance the virtual clock skew added to every deadline poll.
    Deterministic tests ({!Faultify.Stall}) use this instead of
    sleeping; the skew resets on each {!with_budget} install and is
    restored when that install returns. *)

val is_budget_error : Error.t -> bool
(** Is this failure a budget exhaustion — [Budget_exceeded], or a
    [Budget_exhausted] whose terminal [last] failure is one?  The CLI
    maps such failures to exit code 5. *)
