(* A-posteriori ROM accuracy diagnostics.

   Moment matching guarantees Taylor agreement at the expansion point
   by construction — but only if nothing went numerically wrong on the
   way (deflation, Tikhonov fallbacks, lost orthogonality). This module
   closes the loop after a reduction by comparing the associated
   transfer functions H1(s0), H2(s0), H3(s0) of the full and the
   reduced QLDAE and reporting relative output-space residuals, plus
   an H1 frequency sweep at a handful of points off the real axis.

   H_k(s0) is the head (element 0) of a resolvent chain about s0. The
   full model's heads are the ones the reduction itself stepped, handed
   over with its engine (a {!side}); the full model costs nothing here
   but C·head and the H1 sweep, whose Schur factorization is the
   engine's. Only the ROM's q-dimensional heads are stepped, through
   one fresh engine under the same triples mode, whose Schur
   factorization also serves the ROM's side of the sweep. Orders the reduction
   did not match hand over no heads and are not checked. It runs only
   behind an active health sink (the shared reducer tail
   {!Atmor.finish}); an untraced reduction never pays for it. Residuals
   aggregate over inputs/outputs in the Frobenius sense. *)

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

(* Diagnostics must never turn a successful reduction into a failure:
   any numerical error inside an evaluator just drops that entry. *)
let protect f = try f () with
  | Lu.Singular _ | Ksolve.Near_singular _ | Robust.Error.Error _
  | Invalid_argument _ ->
    None

type side = {
  eng : Assoc.t Lazy.t;
  heads : Vec.t list * Vec.t list * Vec.t list;
  triples_mode : [ `All | `Diagonal ];
}

let side ?(triples_mode = `All) eng heads = { eng; heads; triples_mode }

(* The order-[order] residual between the full model's heads [xf] and
   the ROM engine's series heads. The C-applications and series steps
   charge themselves; the glue is a difference and two squared norms
   per p-vector pair. *)
let head_gap ~eng_rom ~triples_mode ~(full : Qldae.t) ~(rom : Qldae.t) order
    xf =
  let p = Mat.rows full.Qldae.c in
  let yf = List.map (Mat.mul_vec full.Qldae.c) xf in
  let yr =
    List.map
      (fun s -> Mat.mul_vec rom.Qldae.c (fst (Option.get (Seq.uncons s))))
      (Assoc.series ~triples_mode eng_rom ~order)
  in
  let words = p * List.length yf in
  Obs.Cost.charge Obs.Cost.Flops_axpy (5 * words) ~read:(2 * words);
  let sq x = x *. x in
  let err2 = List.fold_left2 (fun e f r -> e +. sq (Vec.dist2 f r)) 0.0 yf yr in
  let ref2 = List.fold_left (fun e f -> e +. sq (Vec.norm2 f)) 0.0 yf in
  relative ~err2 ~ref2

(* The ROM's engine about the full side's s0, built on first use (inside
   [protect], so a failing ROM resolvent drops the entry). *)
let rom_engine side rom =
  lazy (Assoc.create ~s0:(Assoc.s0 (Lazy.force side.eng)) rom)

let residuals eng_rom side ~(full : Qldae.t) ~(rom : Qldae.t) : report =
  let gap order = function
    | [] -> None
    | xf ->
      protect (fun () ->
          head_gap ~eng_rom:(Lazy.force eng_rom) ~triples_mode:side.triples_mode
            ~full ~rom order xf)
  in
  let h1, h2, h3 = side.heads in
  { h1 = gap 1 h1; h2 = gap 2 h2; h3 = gap 3 h3 }

let moment_residuals side ~full ~rom =
  residuals (rom_engine side rom) side ~full ~rom

(* H1(s) = C (sI − G1)⁻¹ B at a complex point, all input columns, via
   the k = 1 shifted Kronecker-sum solve (one Schur factorization per
   model serves every sample point of the sweep). *)
let h1_gap ~ks_full ~ks_rom ~(full : Qldae.t) ~(rom : Qldae.t) sigma =
  let m = Qldae.n_inputs full in
  let p = Mat.rows full.Qldae.c in
  let err2 = ref 0.0 and ref2 = ref 0.0 in
  for a = 0 to m - 1 do
    (* the complex difference plus both squared norms over p rows *)
    Obs.Cost.charge Obs.Cost.Flops_axpy (10 * p) ~read:(6 * p)
      ~written:(2 * p);
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
  relative ~err2:!err2 ~ref2:!ref2

let omegas = [ 0.01; 0.1; 1.0; 10.0 ]

(* Each model's Schur factorization is the one its engine holds. *)
let sweep eng_rom side ~(full : Qldae.t) ~(rom : Qldae.t) : (float * float) list =
  match
    protect (fun () ->
        let eng = Lazy.force side.eng in
        let s0 = Assoc.s0 eng in
        let ks_full = Assoc.ksolve eng in
        let ks_rom = Assoc.ksolve (Lazy.force eng_rom) in
        Some
          (List.filter_map
             (fun omega ->
               protect (fun () ->
                   (* budget poll per sweep point; [protect] swallows
                      the raise, so a spent budget drops the remaining
                      points instead of failing the diagnostic *)
                   Robust.Budget.check "mor.Romdiag.freq_sweep";
                   let sigma = { Complex.re = s0; im = omega } in
                   Option.map
                     (fun r -> (omega, r))
                     (h1_gap ~ks_full ~ks_rom ~full ~rom sigma)))
             omegas))
  with
  | Some points -> points
  | None -> []

let freq_sweep side ~full ~rom = sweep (rom_engine side rom) side ~full ~rom

(* The hook the shared reducer tail {!Atmor.finish} calls when a
   health sink is active: compute residuals + sweep inside a dedicated
   span, through one ROM engine, and emit the health records. *)
let emit_health side ~(full : Qldae.t) ~(rom : Qldae.t) =
  Obs.Span.with_ ~name:"romdiag.health" @@ fun () ->
  let eng_rom = rom_engine side rom in
  let r = residuals eng_rom side ~full ~rom in
  List.iter
    (fun (k, res) ->
      match res with
      | Some residual ->
        let s0 = Assoc.s0 (Lazy.force side.eng) in
        Obs.Health.emit (Obs.Health.Moment_residual { k; s0; residual })
      | None -> ())
    [ (1, r.h1); (2, r.h2); (3, r.h3) ];
  List.iter
    (fun (omega, rel_err) ->
      Obs.Health.emit (Obs.Health.Freq_error { omega; rel_err }))
    (sweep eng_rom side ~full ~rom);
  r
