(** High-level facade over the AT-NMOR stack.

    Typical use:
    {[
      let model = Vmor.Circuit.Models.nltl_voltage () in
      let q = Vmor.Circuit.Models.qldae model in
      let r = Vmor.reduce ~orders:{ k1 = 6; k2 = 3; k3 = 2 } q in
      let c =
        Vmor.compare_transient q r ~t1:30.0
          ~input:(Vmor.Waves.Source.vectorize
                    [ Vmor.Waves.Source.damped_sine ~freq:0.125 ~decay:0.08 0.8 ])
      in
      print_string (Vmor.plot_comparison c)
    ]}

    Non-default knobs (expansion point, fault injection, MISO
    third-order coverage, the NORM baseline, a multipoint expansion, a
    compute budget or the lane count) are bundled in one {!Options} value:
    {[
      let r =
        Vmor.reduce
          ~options:(Vmor.Options.make ~s0:0.5 ~method_:Vmor.Norm_baseline ())
          ~orders:{ k1 = 6; k2 = 3; k3 = 0 } q
    ]}

    {b Migration note.} Before the [Options] redesign, [reduce] took
    [?s0]/[?tol]/[?method_] directly; that signature survived for a
    while as the deprecated [reduce_legacy] and has now been {e
    removed} — port call sites to
    [Vmor.reduce ~options:(Vmor.Options.make ?s0 ?tol ~method_ ()) ~orders q],
    which produces identical results.  [Options] is the single way to
    tune a reduction, including the multicore lane count
    ({!Options.t.domains} / [--domains] / [VMOR_DOMAINS]). *)

module La = La

(** Numerical contracts layer: shape combinators, [VMOR_CHECKS]-gated
    value checks, blessed exact-float comparisons (see DESIGN.md). *)
module Contract = Contract

(** Typed error taxonomy, retry/fallback policies, recovery reports and
    fault injection (see DESIGN.md §7). *)
module Robust = Robust

(** Observability layer: hierarchical timed spans, kernel counters and
    pluggable trace sinks (see DESIGN.md §8). Enable with the
    [VMOR_TRACE=FILE]/[VMOR_METRICS=1] environment knobs or the CLI's
    [--trace]/[--metrics] flags; [vmor report] reads a trace back. *)
module Obs = Obs

module Ode = Ode
module Circuit = Circuit
module Volterra = Volterra
module Mor = Mor
module Waves = Waves
module Experiments = Experiments

(** Deterministic multicore primitives (domain pool, [tiles],
    [map_list]); the lane count a reduction uses is set by
    {!Options.t.domains} (see DESIGN.md §14). *)
module Par = Par

type system = Volterra.Qldae.t

type method_ =
  | Associated_transform  (** the paper's proposed method *)
  | Norm_baseline  (** multivariate moment matching (Li & Pileggi) *)
  | Multipoint of float list
      (** associated-transform expansion at several points (paper §4,
          third bullet); the list must be non-empty *)

type orders = Mor.Atmor.orders = { k1 : int; k2 : int; k3 : int }
type reduction = Mor.Atmor.result

(** Everything that tunes a reduction, in one record.  Build with
    {!Options.make} (or update {!Options.default}) so adding future
    fields stays source-compatible. *)
module Options : sig
  type t = {
    s0 : float option;  (** expansion point; [None] = automatic *)
    tol : float;  (** deflation tolerance of the basis QR *)
    method_ : method_;
    fault : Robust.Faultify.plan option;  (** fault injection (tests) *)
    h3_triples : [ `All | `Diagonal ];
        (** MISO third-order input-triple coverage *)
    budget : Robust.Budget.t option;
        (** compute budget (deadline / step caps) installed around the
            reduction; exhaustion degrades to a best-effort ROM or
            raises {!Robust.Error.Budget_exceeded} (see DESIGN.md §13).
            [None] leaves any ambient budget untouched. *)
    domains : int option;
        (** worker-domain lane count for the parallel kernels
            ({!Par}).  [None] (the default) and [Some 1] run the
            serial code path; [Some n] fans hot loops out over [n]
            lanes with results bit-identical to serial (see DESIGN.md
            §14).  [None] also leaves an ambient lane count set by an
            enclosing {!Par.with_domains} untouched. *)
  }

  val default : t
  (** [Associated_transform] at the automatic expansion point,
      [tol = 1e-8], no fault plan, [`All] triples, no budget. The
      recovery policy is always {!Robust.Policy.default}; recovery
      events land in the result's [degradation]. *)

  val make :
    ?s0:float ->
    ?tol:float ->
    ?method_:method_ ->
    ?fault:Robust.Faultify.plan ->
    ?h3_triples:[ `All | `Diagonal ] ->
    ?budget:Robust.Budget.t ->
    ?domains:int ->
    unit ->
    t
  (** Raises the typed {!Robust.Error.Contract_violation} (not
      [Invalid_argument]) when [domains] is outside [[1, 64]]. *)
end

val reduce : ?options:Options.t -> orders:orders -> system -> reduction
(** Reduce a QLDAE by projection NMOR ({!Options.default} when
    [options] is omitted). *)

val rom : reduction -> system
(** The reduced-order model of a reduction. *)

val degradation : reduction -> Robust.Report.t
(** Recovery events behind a reduction; empty for a clean run,
    [Robust.Report.degraded] when moment orders were dropped. *)

val order : reduction -> int
(** Reduced dimension. *)

val transient :
  ?solver:Volterra.Qldae.solver ->
  ?samples:int ->
  system ->
  input:(float -> La.Vec.t) ->
  t1:float ->
  float array * float array
(** Transient simulation from rest; times and the {e first} output
    series only. Use [Volterra.Qldae.simulate] + [Qldae.outputs] for
    all channels of a MIMO system. *)

type comparison = {
  times : float array;
  full_output : float array;  (** first output channel of the full model *)
  rom_output : float array;  (** first output channel of the ROM *)
  full_outputs : float array array;  (** all channels, [n_outputs x samples] *)
  rom_outputs : float array array;
  rel_error : float array;
      (** worst-case relative error {e across all output channels} at
          each sample *)
  max_rel_error : float;  (** maximum of [rel_error] over the transient *)
}

val compare_transient :
  ?solver:Volterra.Qldae.solver ->
  ?samples:int ->
  system ->
  reduction ->
  input:(float -> La.Vec.t) ->
  t1:float ->
  comparison
(** Simulate full model and ROM side by side on the same input.

    Every output channel of a MIMO system is compared: [rel_error] and
    [max_rel_error] are worst-case over channels, while [full_output] /
    [rom_output] keep the first channel for plotting. (Earlier versions
    silently compared only the first channel.)

    When a compute budget truncates either transient
    ([Ode.Types.solution.partial]) the comparison covers the common
    prefix of the two sample grids. *)

val plot_comparison : comparison -> string
(** Terminal plot of a comparison (first output channel). *)
