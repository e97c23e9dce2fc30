(* Automatic moment-order selection (the paper's §4, first bullet:
   "automatic selection of moment numbers in H1(s), H2(s), H3(s) etc.
   can utilize the Hankel singular values or similar measure inherent to
   linear MOR, in contrast to the ad hoc order choice in NORM").

   Two mechanisms are provided:

   - {!suggest_k1}: Hankel-singular-value count of the (stable) linear
     subsystem (G1, b, c) — the classical linear-MOR measure. Only
     meaningful when G1 is Hurwitz (quadratized diode circuits have a
     structurally singular G1; see DESIGN.md).

   - {!reduce}: deflation-driven growth. Moments of each associated
     transfer function are appended in increasing order and the series
     for one transfer order stops as soon as its next moment vector no
     longer adds a direction (orthogonal residual below [growth_tol]) —
     the subspace angle playing the role of the singular-value
     threshold. This works for singular-G1 systems too and needs no
     n²-sized gramians. *)

open La
open Volterra

type selection = {
  result : Atmor.result;
  chosen : Atmor.orders;  (* orders actually kept *)
}

let suggest_k1 ?(tol = 1e-6) (q : Qldae.t) : int option =
  let g1 = q.Qldae.g1 in
  let eigs = Schur.eigenvalues (Schur.decompose g1) in
  let stable = Array.for_all (fun (z : Complex.t) -> z.re < -1e-9) eigs in
  if not stable then None
  else
    Some (Lyapunov.suggested_order ~tol ~a:g1 ~b:q.Qldae.b ~c:q.Qldae.c ())

(* Incremental orthonormal basis: add a vector, report whether it
   contributed a new direction. *)
let add_to_basis ~tol basis (v : Vec.t) =
  let v = Vec.copy v in
  let norm0 = Vec.norm2 v in
  if Contract.is_zero norm0 then false
  else begin
    let project_out () =
      List.iter
        (fun u ->
          let c = Vec.dot u v in
          Vec.axpy ~alpha:(-.c) u v)
        !basis
    in
    project_out ();
    project_out ();
    let n = Vec.norm2 v in
    if n > tol *. norm0 then begin
      Vec.scale_inplace (1.0 /. n) v;
      basis := v :: !basis;
      true
    end
    else false
  end

let reduce_loc = Robust.Error.loc ~subsystem:"mor" ~operation:"Autoselect.reduce"

let reduce ?recorder ?policy ?fault ?s0 ?(growth_tol = 1e-7)
    ?(max_orders = { Atmor.k1 = 12; k2 = 6; k3 = 3 }) ?(h3_triples = `All)
    (q : Qldae.t) : selection =
  Atmor.require_orders "Autoselect.reduce" max_orders;
  Obs.Span.with_ ~name:"autoselect.reduce" @@ fun () ->
  let t_start = Obs.Clock.now () in
  let policy = match policy with Some p -> p | None -> Robust.Policy.default () in
  let rec0 = match recorder with Some r -> r | None -> Robust.Report.recorder () in
  let mark0 = Robust.Report.mark rec0 in
  (* Pick the expansion point by probing one H1 moment per candidate of
     the nudge sequence — a singular (s0 I − G1) or a pole-riding shift
     fails fast here instead of mid-growth — and walking the outcomes
     with [Policy.walk_nudges]. The growth run below uses a fresh
     engine, so fault-injection schedules are not consumed by
     probing. *)
  let s0_req = match s0 with Some s -> s | None -> Assoc.default_s0 q in
  let s0_sel =
    (* One probe, isolated: it records into a private recorder (spliced
       into [rec0] only when the walk actually visits the candidate)
       and catches everything, so probes can run speculatively on Par
       lanes without racing the shared report. *)
    let probe cand =
      let rec_c = Robust.Report.recorder () in
      match
        (* budget poll between probe candidates: post-deadline
           candidates fail fast into the classified path *)
        Robust.Budget.check "mor.Autoselect.reduce";
        let eng = Assoc.create ~recorder:rec_c ~policy ~s0:cand q in
        List.for_all Vec.is_finite (Assoc.h1_moments eng ~k:1)
      with
      | finite -> (rec_c, Ok finite)
      | exception exn -> (rec_c, Error exn)
    in
    let visit cand (rec_c, verdict) () =
      Robust.Report.splice rec0 rec_c;
      match verdict with
      | Error exn -> raise exn
      | Ok false ->
        Robust.Policy.Failed
          (Robust.Error.Contract_violation
             {
               loc = reduce_loc;
               detail = Printf.sprintf "non-finite H1 probe at s0 = %g" cand;
             })
      | Ok true -> Robust.Policy.outcome_of_events () (Robust.Report.events rec_c)
    in
    let candidates = Robust.Policy.nudges policy s0_req in
    (* With parallelism on, speculate: probe every nudge candidate at
       once, then walk the precomputed outcomes.  Probes past the
       winner are wasted work but never touch [rec0], so the
       degradation report stays bit-identical to the serial walk.
       Serial keeps the lazy probe-on-demand order. *)
    let probed =
      if Par.domains () > 1 then
        List.map2
          (fun cand r -> (cand, visit cand r))
          candidates
          (Par.map_list probe candidates)
      else
        List.map (fun cand -> (cand, fun () -> visit cand (probe cand) ()))
          candidates
    in
    match
      Robust.Policy.walk_nudges ~recorder:rec0
        ~classify:(Ladder.classify ~loc:reduce_loc) probed
    with
    | Ok (s0, ()) -> s0
    | Error (attempts, last) ->
      Robust.Error.raise_error
        (Robust.Error.Budget_exhausted { loc = reduce_loc; attempts; last })
  in
  let eng = Assoc.create ~recorder:rec0 ~policy ?fault ~s0:s0_sel q in
  let basis = ref [] in
  let raw = ref 0 in
  (* Grow one transfer order: [moments k] returns the k-th step's moment
     vectors (one per input combination); stop when a whole step adds
     nothing. *)
  let grow ~kmax (moments_upto : k:int -> Vec.t list list) =
    (* moments_upto returns, for depth k, the list of per-combination
       series (each of length k); we consume them incrementally *)
    if kmax = 0 then 0
    else begin
      let series = moments_upto ~k:kmax in
      let chosen = ref 0 in
      (try
         for step = 0 to kmax - 1 do
           (* anytime growth: steps kept so far are a valid (smaller)
              orthonormal basis, so a spent budget truncates the series
              instead of dropping the whole block *)
           (match Robust.Budget.poll "mor.Autoselect.reduce" with
           | None -> ()
           | Some e when !chosen > 0 ->
             Robust.Report.record rec0 ~action:"degrade:truncate-series" e;
             raise Exit
           | Some e -> Robust.Error.raise_error e);
           let any_fresh = ref false in
           List.iter
             (fun s ->
               if step < List.length s then begin
                 let v = List.nth s step in
                 if not (Vec.is_finite v) then
                   Robust.Error.raise_error
                     (Robust.Error.Contract_violation
                        {
                          loc = reduce_loc;
                          detail = "non-finite moment vector";
                        });
                 incr raw;
                 if add_to_basis ~tol:growth_tol basis v then
                   any_fresh := true
               end)
             series;
           if not !any_fresh then raise Exit;
           chosen := step + 1
         done
       with Exit -> ());
      !chosen
    end
  in
  (* A transfer order whose series generation fails (classified
     numerical error, injected fault) is dropped to zero moments — the
     lower orders still yield a ROM, and the report says what
     happened. *)
  let last_block_err = ref None in
  let grow_block what ~kmax moments_upto =
    match grow ~kmax moments_upto with
    | k -> k
    | exception exn -> (
      match Ladder.classify ~loc:reduce_loc exn with
      | None -> raise exn
      | Some err ->
        (* remember what killed the blocks; a budget failure wins so an
           all-blocks-spent run surfaces as budget exhaustion (exit 5),
           not a generic numerical error *)
        (match !last_block_err with
        | Some e when Robust.Budget.is_budget_error e -> ()
        | _ -> last_block_err := Some err);
        Robust.Report.record rec0 ~action:("degrade:" ^ what) err;
        0)
  in
  let m = Qldae.n_inputs q in
  let k1 =
    grow_block "h1" ~kmax:max_orders.Atmor.k1 (fun ~k ->
        let all = Assoc.h1_moments eng ~k in
        (* split per input: h1_moments returns k vectors per input,
           consecutively *)
        List.init m (fun i ->
            List.filteri (fun j _ -> j / k = i) all))
  in
  let k2 =
    if Qldae.has_g2 q || Qldae.has_d1 q then
      grow_block "h2" ~kmax:max_orders.Atmor.k2 (fun ~k ->
          List.map (Assoc.h2_moment_series eng ~k) (Assoc.pairs m))
    else 0
  in
  let k3 =
    if Qldae.has_g2 q || Qldae.has_g3 q || Qldae.has_d1 q then
      grow_block "h3" ~kmax:max_orders.Atmor.k3 (fun ~k ->
          List.map (Assoc.h3_moment_series eng ~k) (Assoc.triples h3_triples m))
    else 0
  in
  if !basis = [] then
    Robust.Error.raise_error
      (Robust.Error.Budget_exhausted
         {
           loc = reduce_loc;
           attempts = 1;
           last =
             Some
               (match !last_block_err with
               | Some e -> e
               | None ->
                 Robust.Error.Contract_violation
                   {
                     loc = reduce_loc;
                     detail = "every moment series failed; no basis";
                   });
         });
  let chosen = { Atmor.k1; k2; k3 } in
  let result =
    Atmor.finish ~ctx:"Autoselect.reduce" ~t_start ~s0:(Assoc.s0 eng)
      ~orders:chosen ~raw_moments:!raw
      ~degradation:(Robust.Report.since rec0 mark0)
      q
      (Mat.of_cols (List.rev !basis))
  in
  { result; chosen }
