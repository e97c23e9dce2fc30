(* A-posteriori ROM accuracy diagnostics.

   Moment matching guarantees Taylor agreement at the expansion point
   by construction — but only if nothing went numerically wrong on the
   way (deflation, ladder fallbacks, lost orthogonality). This module
   closes the loop after a reduction by actually evaluating the
   associated transfer functions H1(s), H2(s), H3(s) of the full and
   the reduced QLDAE at the expansion point and reporting relative
   output-space residuals, plus an H1 frequency sweep at a handful of
   points off the real axis.

   Cost: one extra Schur factorization per model and a few shifted
   solves — all gated behind an active health sink by the shared
   reducer tail ({!Atmor.finish}); an untraced reduction never pays
   for it. Residuals aggregate over inputs/outputs in the Frobenius
   sense; H3 uses diagonal input triples (a,a,a) and both H2/H3 are
   skipped above a dimension cap so a traced run of a big model cannot
   accidentally dwarf the reduction it is diagnosing. *)

open La
open Volterra

type report = { h1 : float option; h2 : float option; h3 : float option }

(* ||.||² of a complex vector *)
let csq v =
  let n = Cvec.norm2 v in
  n *. n

(* y = C x for complex x, real C *)
let apply_c (c : Mat.t) (x : Cvec.t) : Cvec.t =
  Cvec.make
    ~re:(Mat.mul_vec c (Cvec.real_part x))
    ~im:(Mat.mul_vec c (Cvec.imag_part x))

(* Accumulate (error², reference²) pairs and fold them into a relative
   residual; [None] when the reference is numerically zero. *)
let relative ~err2 ~ref2 =
  if ref2 <= 1e-300 then None else Some (sqrt (err2 /. ref2))

(* H1(s) = C (sI − G1)⁻¹ B, all input columns, via the k = 1 shifted
   Kronecker-sum solve (one Schur factorization serves every sample
   point of the sweep). *)
(* Un-leafed residual glue per output pair: the complex difference plus
   both squared norms over the p output rows; the evaluators and the
   C-applications charge themselves. *)
let charge_gap ~outputs:p =
  Obs.Cost.charge Obs.Cost.Flops_axpy (10 * p) ~read:(6 * p) ~written:(2 * p)

let h1_gap ~ks_full ~ks_rom ~(full : Qldae.t) ~(rom : Qldae.t) sigma =
  let m = Qldae.n_inputs full in
  let p = Mat.rows full.Qldae.c in
  let err2 = ref 0.0 and ref2 = ref 0.0 in
  for a = 0 to m - 1 do
    charge_gap ~outputs:p;
    let yf =
      apply_c full.Qldae.c
        (Ksolve.solve_shifted ks_full ~k:1 ~sigma
           (Cvec.of_real (Qldae.b_col full a)))
    in
    let yr =
      apply_c rom.Qldae.c
        (Ksolve.solve_shifted ks_rom ~k:1 ~sigma
           (Cvec.of_real (Qldae.b_col rom a)))
    in
    err2 := !err2 +. csq (Cvec.sub yf yr);
    ref2 := !ref2 +. csq yf
  done;
  (!err2, !ref2)

let h2_gap ~eng_full ~eng_rom ~(full : Qldae.t) ~(rom : Qldae.t) sigma =
  let m = Qldae.n_inputs full in
  let p = Mat.rows full.Qldae.c in
  let err2 = ref 0.0 and ref2 = ref 0.0 in
  for a = 0 to m - 1 do
    for b = a to m - 1 do
      charge_gap ~outputs:p;
      let yf = apply_c full.Qldae.c (Assoc.h2_eval eng_full ~inputs:(a, b) sigma) in
      let yr = apply_c rom.Qldae.c (Assoc.h2_eval eng_rom ~inputs:(a, b) sigma) in
      err2 := !err2 +. csq (Cvec.sub yf yr);
      ref2 := !ref2 +. csq yf
    done
  done;
  (!err2, !ref2)

let h3_gap ~eng_full ~eng_rom ~(full : Qldae.t) ~(rom : Qldae.t) sigma =
  let m = Qldae.n_inputs full in
  let p = Mat.rows full.Qldae.c in
  let err2 = ref 0.0 and ref2 = ref 0.0 in
  for a = 0 to m - 1 do
    charge_gap ~outputs:p;
    let yf =
      apply_c full.Qldae.c (Assoc.h3_eval eng_full ~inputs:(a, a, a) sigma)
    in
    let yr =
      apply_c rom.Qldae.c (Assoc.h3_eval eng_rom ~inputs:(a, a, a) sigma)
    in
    err2 := !err2 +. csq (Cvec.sub yf yr);
    ref2 := !ref2 +. csq yf
  done;
  (!err2, !ref2)

(* Diagnostics must never turn a successful reduction into a failure:
   any numerical error inside an evaluator just drops that entry. *)
let protect f = try f () with
  | Lu.Singular _ | Ksolve.Near_singular _ | Robust.Error.Error _
  | Invalid_argument _ ->
    None

let default_h2_cap = 600
let default_h3_cap = 300

let moment_residuals ?(h2_dim_cap = default_h2_cap)
    ?(h3_dim_cap = default_h3_cap) ~s0 ~(full : Qldae.t) ~(rom : Qldae.t) () :
    report =
  let sigma = { Complex.re = s0; im = 0.0 } in
  let n = Qldae.dim full in
  let has2 = Qldae.has_g2 full || Qldae.has_d1 full in
  let has3 = has2 || Qldae.has_g3 full in
  let ks_full = lazy (Ksolve.prepare full.Qldae.g1) in
  let ks_rom = lazy (Ksolve.prepare rom.Qldae.g1) in
  let eng_full = lazy (Assoc.create ~s0 full) in
  let eng_rom = lazy (Assoc.create ~s0 rom) in
  let h1 =
    protect (fun () ->
        let err2, ref2 =
          h1_gap ~ks_full:(Lazy.force ks_full) ~ks_rom:(Lazy.force ks_rom)
            ~full ~rom sigma
        in
        relative ~err2 ~ref2)
  in
  let h2 =
    if has2 && n <= h2_dim_cap then
      protect (fun () ->
          let err2, ref2 =
            h2_gap ~eng_full:(Lazy.force eng_full)
              ~eng_rom:(Lazy.force eng_rom) ~full ~rom sigma
          in
          relative ~err2 ~ref2)
    else None
  in
  let h3 =
    if has3 && n <= h3_dim_cap then
      protect (fun () ->
          let err2, ref2 =
            h3_gap ~eng_full:(Lazy.force eng_full)
              ~eng_rom:(Lazy.force eng_rom) ~full ~rom sigma
          in
          relative ~err2 ~ref2)
    else None
  in
  { h1; h2; h3 }

let default_omegas = [ 0.01; 0.1; 1.0; 10.0 ]

let freq_sweep ?(omegas = default_omegas) ~s0 ~(full : Qldae.t)
    ~(rom : Qldae.t) () : (float * float) list =
  match
    protect (fun () ->
        let ks_full = Ksolve.prepare full.Qldae.g1 in
        let ks_rom = Ksolve.prepare rom.Qldae.g1 in
        Some
          (List.filter_map Fun.id
             (* sweep points are independent reads of the two prepared
                solvers, so they fan out over Par work items; the
                index-ordered merge keeps the point list identical to a
                serial sweep *)
             (Par.map_list
                (fun omega ->
                  protect (fun () ->
                      (* budget poll per sweep point; [protect] swallows
                         the raise, so a spent budget drops the remaining
                         points instead of failing the diagnostic *)
                      Robust.Budget.check "mor.Romdiag.freq_sweep";
                      let sigma = { Complex.re = s0; im = omega } in
                      let err2, ref2 =
                        h1_gap ~ks_full ~ks_rom ~full ~rom sigma
                      in
                      Option.map (fun r -> (omega, r)) (relative ~err2 ~ref2)))
                omegas)))
  with
  | Some points -> points
  | None -> []

(* The hook the shared reducer tail {!Atmor.finish} calls when a
   health sink is active: compute residuals + sweep inside a dedicated span and emit
   the health records. *)
let emit_health ?h2_dim_cap ?h3_dim_cap ?omegas ~s0 ~(full : Qldae.t)
    ~(rom : Qldae.t) () =
  Obs.Span.with_ ~name:"romdiag.health" @@ fun () ->
  let r = moment_residuals ?h2_dim_cap ?h3_dim_cap ~s0 ~full ~rom () in
  List.iter
    (fun (k, res) ->
      match res with
      | Some residual ->
        Obs.Health.emit (Obs.Health.Moment_residual { k; s0; residual })
      | None -> ())
    [ (1, r.h1); (2, r.h2); (3, r.h3) ];
  List.iter
    (fun (omega, rel_err) ->
      Obs.Health.emit (Obs.Health.Freq_error { omega; rel_err }))
    (freq_sweep ?omegas ~s0 ~full ~rom ());
  r
