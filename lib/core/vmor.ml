(* High-level facade over the AT-NMOR stack: build or load a QLDAE,
   reduce it with the paper's method (or the NORM baseline, or a
   multipoint expansion), simulate, and compare — in a handful of
   calls. The submodule aliases re-export the full underlying API for
   power users. *)

module La = La
module Contract = Contract
module Robust = Robust
module Obs = Obs
module Ode = Ode
module Circuit = Circuit
module Volterra = Volterra
module Mor = Mor
module Waves = Waves
module Experiments = Experiments
module Par = Par

type system = Volterra.Qldae.t

type method_ =
  | Associated_transform
  | Norm_baseline
  | Multipoint of float list

type orders = Mor.Atmor.orders = { k1 : int; k2 : int; k3 : int }

type reduction = Mor.Atmor.result

module Options = struct
  type t = {
    s0 : float option;
    tol : float;
    method_ : method_;
    fault : Robust.Faultify.plan option;
    h3_triples : [ `All | `Diagonal ];
    budget : Robust.Budget.t option;
    domains : int option;
  }

  let default =
    {
      s0 = None;
      tol = 1e-8;
      method_ = Associated_transform;
      fault = None;
      h3_triples = `All;
      budget = None;
      domains = None;
    }

  let make ?s0 ?(tol = 1e-8) ?(method_ = Associated_transform) ?fault
      ?(h3_triples = `All) ?budget ?domains () =
    (match domains with
    | Some n when n < 1 || n > Par.max_domains ->
      (* a typed error, not [invalid_arg]: callers wiring user input
         into Options get the same taxonomy as every other contract *)
      Robust.Error.raise_error
        (Robust.Error.Contract_violation
           {
             loc = Robust.Error.loc ~subsystem:"core" ~operation:"Options.make";
             detail =
               Printf.sprintf "domains = %d outside [1, %d]" n Par.max_domains;
           })
    | _ -> ());
    { s0; tol; method_; fault; h3_triples; budget; domains }
end

let reduce ?(options = Options.default) ~orders (q : system) : reduction =
  let { Options.s0; tol; method_; fault; h3_triples; budget; domains } =
    options
  in
  Par.with_domains domains @@ fun () ->
  Robust.Budget.with_budget budget @@ fun () ->
  match method_ with
  | Associated_transform ->
    Mor.Atmor.reduce ?fault ?s0 ~tol ~h3_triples ~orders q
  | Norm_baseline -> Mor.Norm.reduce ?s0 ~tol ~orders q
  | Multipoint points ->
    Mor.Atmor.reduce_multipoint ~tol ~h3_triples ~points ~orders q

(* Recovery events behind a reduction (empty = clean run). *)
let degradation (r : reduction) : Robust.Report.t = r.Mor.Atmor.degradation

let rom (r : reduction) : system = r.Mor.Atmor.rom

let order = Mor.Atmor.order

(* Transient of any (full or reduced) system; returns times and the
   first output series. *)
let transient ?solver ?samples:(samples = 201) (q : system)
    ~(input : float -> La.Vec.t) ~t1 =
  let sol = Volterra.Qldae.simulate ?solver q ~input ~t0:0.0 ~t1 ~samples in
  (sol.Ode.Types.times, Volterra.Qldae.output q sol)

type comparison = {
  times : float array;
  full_output : float array;
  rom_output : float array;
  full_outputs : float array array;
  rom_outputs : float array array;
  rel_error : float array;
  max_rel_error : float;
}

(* Simulate the full model and a reduction side by side, comparing
   every output channel; [rel_error] is the worst case across channels
   at each sample. *)
let compare_transient ?solver ?samples:(samples = 201) (q : system)
    (r : reduction) ~(input : float -> La.Vec.t) ~t1 : comparison =
  let full_sol = Volterra.Qldae.simulate ?solver q ~input ~t0:0.0 ~t1 ~samples in
  let rom_sol =
    Volterra.Qldae.simulate ?solver (rom r) ~input ~t0:0.0 ~t1 ~samples
  in
  (* A compute budget may truncate either transient ([partial]); the
     comparison covers the common prefix of the two sample grids. *)
  let n =
    min
      (Array.length full_sol.Ode.Types.times)
      (Array.length rom_sol.Ode.Types.times)
  in
  let prefix a = if Array.length a = n then a else Array.sub a 0 n in
  let full_outputs = Array.map prefix (Volterra.Qldae.outputs q full_sol) in
  let rom_outputs =
    Array.map prefix (Volterra.Qldae.outputs (rom r) rom_sol)
  in
  let channel_errors =
    Array.map2
      (fun reference approx ->
        Waves.Metrics.relative_error_series ~reference ~approx)
      full_outputs rom_outputs
  in
  let rel_error =
    Array.init n (fun i ->
        Array.fold_left (fun acc e -> Float.max acc e.(i)) 0.0 channel_errors)
  in
  {
    times = prefix full_sol.Ode.Types.times;
    full_output = full_outputs.(0);
    rom_output = rom_outputs.(0);
    full_outputs;
    rom_outputs;
    rel_error;
    max_rel_error = Array.fold_left Float.max 0.0 rel_error;
  }

(* Render a comparison as a terminal plot (first output channel). *)
let plot_comparison (c : comparison) : string =
  Waves.Asciiplot.render ~xs:c.times
    [ ("Original", c.full_output); ("Reduced", c.rom_output) ]
