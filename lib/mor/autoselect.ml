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
     for one transfer order stops as soon as its next moment step no
     longer adds a direction (orthogonal residual below [growth_tol]) —
     the subspace angle playing the role of the singular-value
     threshold. The series are lazy ({!Assoc.series}), so moments past
     that step are never computed. This works for singular-G1 systems
     too and needs no n²-sized gramians. *)

open La
open Volterra

type selection = {
  result : Atmor.result;
  chosen : Atmor.orders;  (* orders actually kept *)
}

(* The gramian solves decide stability (Lyapunov's Hurwitz rule). *)
let suggest_k1 ?(tol = 1e-6) (q : Qldae.t) : int option =
  match
    Lyapunov.suggested_order ~tol ~a:q.Qldae.g1 ~b:q.Qldae.b ~c:q.Qldae.c ()
  with
  | k -> Some k
  | exception Robust.Error.Error (Robust.Error.Non_hurwitz _) -> None

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

let reduce ?policy ?fault ?s0 ?(growth_tol = 1e-7)
    ?(max_orders = { Atmor.k1 = 12; k2 = 6; k3 = 3 }) ?(h3_triples = `All)
    (q : Qldae.t) : selection =
  Atmor.require_orders "Autoselect.reduce" max_orders;
  Obs.Span.with_ ~name:"autoselect.reduce" @@ fun () ->
  let t_start = Obs.Clock.now () in
  let policy = match policy with Some p -> p | None -> Robust.Policy.default () in
  let rec0 = Robust.Report.recorder () in
  (* Pick the expansion point by probing one H1 moment per candidate of
     the nudge sequence, on demand — a singular (s0 I − G1) or a
     pole-riding shift fails fast here instead of mid-growth — and
     walking the outcomes with [Policy.walk_nudges]. The growth run
     below rearms the selected probe's engine (its Schur factorization
     reused) with a fresh fault plan, so fault-injection schedules are
     not consumed by probing. *)
  let s0_req = match s0 with Some s -> s | None -> Assoc.default_s0 q in
  let probe_eng =
    (* One probe: it records into a private recorder, spliced into
       [rec0] when the walk visits the candidate. *)
    let probe cand () =
      let rec_c = Robust.Report.recorder () in
      let eng, finite =
        Fun.protect
          ~finally:(fun () -> Robust.Report.splice rec0 rec_c)
          (fun () ->
            (* budget poll between probe candidates: post-deadline
               candidates fail fast into the classified path *)
            Robust.Budget.check "mor.Autoselect.reduce";
            let eng = Assoc.create ~recorder:rec_c ~policy ~s0:cand q in
            (eng, List.for_all Vec.is_finite (Assoc.h1_moments eng ~k:1)))
      in
      if finite then Robust.Policy.outcome_of_events eng (Robust.Report.events rec_c)
      else
        Robust.Policy.Failed
          (Robust.Error.Contract_violation
             {
               loc = reduce_loc;
               detail = Printf.sprintf "non-finite H1 probe at s0 = %g" cand;
             })
    in
    let probed =
      List.map (fun cand -> (cand, probe cand))
        (Robust.Policy.nudges policy s0_req)
    in
    match
      Robust.Policy.walk_nudges ~recorder:rec0
        ~classify:(Atmor.classify ~loc:reduce_loc) probed
    with
    | Ok (_, eng) -> eng
    | Error (attempts, last) ->
      Robust.Error.raise_error
        (Robust.Error.Budget_exhausted { loc = reduce_loc; attempts; last })
  in
  let eng = Assoc.rearm probe_eng ~recorder:rec0 ~fault in
  let basis = ref [] in
  let raw = ref 0 in
  (* Grow one transfer order over its lazy series (one per input
     combination): each step forces the next moment of every series, and
     growth stops when a whole step adds nothing, so the moments past
     that step are never computed. *)
  let grow ~kmax (series : Vec.t Seq.t list) =
    (* [step k series]: [k] steps kept, [series] at step [k] *)
    let rec step k series =
      if k >= kmax || List.is_empty series then k
      else begin
        let heads = List.filter_map Seq.uncons series in
        (* anytime growth: a step is kept only if the budget is unspent
           once it is computed; the steps kept so far are a valid
           (smaller) orthonormal basis, so a spent budget truncates the
           series instead of dropping the whole block *)
        match Robust.Budget.poll "mor.Autoselect.reduce" with
        | Some e when k > 0 ->
          Robust.Report.record rec0 ~action:"degrade:truncate-series" e;
          k
        | Some e -> Robust.Error.raise_error e
        | None ->
          let any_fresh = ref false in
          List.iter
            (fun (v, _) ->
              if not (Vec.is_finite v) then
                Robust.Error.raise_error
                  (Robust.Error.Contract_violation
                     { loc = reduce_loc; detail = "non-finite moment vector" });
              incr raw;
              if add_to_basis ~tol:growth_tol basis v then any_fresh := true)
            heads;
          if !any_fresh then step (k + 1) (List.map snd heads) else k
      end
    in
    step 0 series
  in
  (* A transfer order whose series generation fails (classified
     numerical error, injected fault) is dropped to zero moments, with
     the basis and raw count rolled back to before the block — the lower
     orders still yield a ROM, and the report says what happened. A
     kept block also returns each series' step-0 head (memoized by the
     series, so free): the full model's side of the health check. *)
  let last_block_err = ref None in
  let grow_block what ~kmax series =
    let basis0 = !basis and raw0 = !raw in
    match grow ~kmax series with
    | 0 -> (0, [])
    | k -> (k, List.map (fun s -> fst (Option.get (Seq.uncons s))) series)
    | exception exn -> (
      match Atmor.classify ~loc:reduce_loc exn with
      | None -> raise exn
      | Some err ->
        basis := basis0;
        raw := raw0;
        (* remember what killed the blocks; a budget failure wins so an
           all-blocks-spent run surfaces as budget exhaustion (exit 5),
           not a generic numerical error *)
        (match !last_block_err with
        | Some e when Robust.Budget.is_budget_error e -> ()
        | _ -> last_block_err := Some err);
        Robust.Report.record rec0 ~action:("degrade:" ^ what) err;
        (0, []))
  in
  let k1, h1 = grow_block "h1" ~kmax:max_orders.Atmor.k1 (Assoc.series eng ~order:1) in
  let k2, h2 = grow_block "h2" ~kmax:max_orders.Atmor.k2 (Assoc.series eng ~order:2) in
  let k3, h3 =
    grow_block "h3" ~kmax:max_orders.Atmor.k3
      (Assoc.series ~triples_mode:h3_triples eng ~order:3)
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
      ~degradation:(Robust.Report.events rec0)
      ~side:
        (Romdiag.side ~triples_mode:h3_triples (Lazy.from_val eng) (h1, h2, h3))
      q
      (Mat.of_cols (List.rev !basis))
  in
  { result; chosen }
