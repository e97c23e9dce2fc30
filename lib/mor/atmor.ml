(* AT-NMOR: the paper's proposed nonlinear MOR via associated transforms.

   Moment vectors of the single-s associated transfer functions H1(s),
   H2(s) = A2(H2), H3(s) = A3(H3) about one expansion point are stacked
   and orthonormalized (with deflation) into the projection basis — so
   preserving k1/k2/k3 moments costs O(k1 + k2 + k3) basis vectors,
   against the O(k1 + k2³ + k3⁴) of multivariate matching (paper §4,
   first bullet). The QLDAE is then reduced by Galerkin projection. *)

open La
open Volterra

type orders = { k1 : int; k2 : int; k3 : int }

type result = {
  basis : Mat.t;  (* n x q orthonormal projection matrix *)
  rom : Qldae.t;  (* reduced-order model, dimension q *)
  orders : orders;
  s0 : float;  (* expansion point used *)
  raw_moments : int;  (* moment vectors generated before deflation *)
  reduction_seconds : float;  (* moment generation + projection time
                                 (the paper's "Arnoldi" row in Table 1) *)
  degradation : Robust.Report.t;
      (* recovery events behind this ROM; empty = clean run *)
}

let order t = Mat.cols t.basis

let require_orders ctx (orders : orders) =
  Contract.require ctx
    (orders.k1 >= 0 && orders.k2 >= 0 && orders.k3 >= 0)
    "dimension mismatch"
    (Printf.sprintf "moment orders (%d, %d, %d) must be non-negative"
       orders.k1 orders.k2 orders.k3)

(* Contract failures name their rule in the message (Contract's
   "<ctx>: <rule> (<details>)" format). *)
let mentions_non_finite msg =
  let sub = "non-finite" in
  let n = String.length sub in
  let rec go i =
    i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
  in
  go 0

(* Exceptions a reducer's recovery walk handles, as typed errors;
   anything else propagates. *)
let classify ~loc = function
  | Lu.Singular _ ->
    Some
      (Robust.Error.Singular_solve { loc; shift = Float.nan; distance = 0.0 })
  | Ksolve.Near_singular d ->
    Some (Robust.Error.Singular_solve { loc; shift = Float.nan; distance = d })
  | Robust.Error.Error e -> Some e
  | Invalid_argument msg when mentions_non_finite msg ->
    Some (Robust.Error.Contract_violation { loc; detail = msg })
  | _ -> None

(* The one tail behind every moment-matching reducer: re-assert the
   basis is finite right before the Galerkin projection consumes it
   (VMOR_CHECKS-gated), project, publish the order and time, and — only
   when someone is listening — check a posteriori that the moment match
   held at s0, on the full model's [side] as the reducer computed it.
   The check is timed after [dt], so the diagnostic never inflates the
   reported reduction time. *)
let finish ~ctx ~t_start ~s0 ~orders ~raw_moments ~degradation ~side
    (q : Qldae.t) (basis : Mat.t) : result =
  Contract.require_finite (ctx ^ ": basis") (Mat.data basis);
  let rom = Qldae.project q basis in
  let dt = Obs.Clock.now () -. t_start in
  Obs.Metrics.set_gauge "reduced_order" (float_of_int (Mat.cols basis));
  if Obs.Health.active () then
    ignore (Romdiag.emit_health side ~full:q ~rom);
  { basis; rom; orders; s0; raw_moments; reduction_seconds = dt; degradation }

(* The series heads of moments laid out [k] per input combination. *)
let heads k m = List.filteri (fun i _ -> i mod max k 1 = 0) m

let reduce_loc = Robust.Error.loc ~subsystem:"mor" ~operation:"Atmor.reduce"

(* Graceful degradation: each order level (the requested orders, then
   H3 dropped, then H2 as well) walks the policy's nudge candidates
   through [Policy.walk_nudges]; a lower-order basis with an honest
   report beats an uncaught exception. *)
let reduce ?policy ?fault ?s0 ?(tol = 1e-8) ?(h3_triples = `All)
    ~(orders : orders) (q : Qldae.t) : result =
  require_orders "Atmor.reduce" orders;
  Obs.Span.with_ ~name:"atmor.reduce" @@ fun () ->
  let t_start = Obs.Clock.now () in
  let policy = match policy with Some p -> p | None -> Robust.Policy.default () in
  let rec0 = Robust.Report.recorder () in
  let s0_req = match s0 with Some s -> s | None -> Assoc.default_s0 q in
  let candidates = Robust.Policy.nudges policy s0_req in
  let levels =
    (* requested orders first, then H3 dropped, then H2 as well; levels
       that cannot produce any moment vector are pointless retries
       (keep the head so an empty request still errors as before) *)
    let has2 = Qldae.has_g2 q || Qldae.has_d1 q in
    let has3 = has2 || Qldae.has_g3 q in
    let nonempty o =
      o.k1 > 0 || (o.k2 > 0 && has2) || (o.k3 > 0 && has3)
    in
    let dedup =
      List.fold_left (fun acc o -> if List.mem o acc then acc else o :: acc) []
    in
    match
      List.rev
        (dedup [ orders; { orders with k3 = 0 }; { orders with k2 = 0; k3 = 0 } ])
    with
    | base :: degraded -> base :: List.filter nonempty degraded
    | [] -> assert false
  in
  (* One moment-generation attempt at a fixed (orders, expansion point).
     The orders it carries are the ones actually realized: a compute
     budget spent after H1 drops the higher blocks in place (best-so-far
     ROM) rather than failing the attempt. *)
  let attempt eff cand () =
    let mark = Robust.Report.mark rec0 in
    (* budget poll between candidates: once the deadline is spent,
       every remaining attempt fails fast here and the level walk falls
       through to the best usable result so far *)
    Robust.Budget.check "mor.Atmor.reduce";
    let eng = Assoc.create ~recorder:rec0 ~policy ?fault ~s0:cand q in
    let m1 = if eff.k1 > 0 then Assoc.h1_moments eng ~k:eff.k1 else [] in
    (* Anytime semantics: a budget spent after H1 succeeded keeps the
       blocks already generated — the best-so-far lower-order ROM —
       instead of discarding the attempt; the dropped block is recorded
       so the result reports degraded. Other failures (and a budget
       spent before any moment exists) still fail the attempt. *)
    let realized = ref eff in
    let best_effort what drop f =
      match f () with
      | v -> v
      | exception Robust.Error.Error e
        when Robust.Budget.is_budget_error e && m1 <> [] ->
        Robust.Report.record rec0 ~action:("degrade:" ^ what) e;
        realized := drop !realized;
        []
    in
    let m2 =
      if eff.k2 > 0 then
        best_effort "h2"
          (fun o -> { o with k2 = 0 })
          (fun () -> Assoc.h2_moments eng ~k:eff.k2)
      else []
    in
    let m3 =
      if eff.k3 > 0 then
        best_effort "h3"
          (fun o -> { o with k3 = 0 })
          (fun () -> Assoc.h3_moments ~triples_mode:h3_triples eng ~k:eff.k3)
      else []
    in
    match m1 @ m2 @ m3 with
    | [] -> invalid_arg "Atmor.reduce: no moments requested"
    | vectors when not (List.for_all Vec.is_finite vectors) ->
      Robust.Policy.Failed
        (Robust.Error.Contract_violation
           {
             loc = reduce_loc;
             detail = Printf.sprintf "non-finite moments at s0 = %g" cand;
           })
    | vectors ->
      let r = !realized in
      let side =
        Romdiag.side ~triples_mode:h3_triples (Lazy.from_val eng)
          (heads r.k1 m1, heads r.k2 m2, heads r.k3 m3)
      in
      Robust.Policy.outcome_of_events (vectors, r, side)
        (Robust.Report.since rec0 mark)
  in
  let classify = classify ~loc:reduce_loc in
  let rec walk_levels attempts last = function
    | [] ->
      Robust.Error.raise_error
        (Robust.Error.Budget_exhausted { loc = reduce_loc; attempts; last })
    | eff :: rest -> (
      match
        Robust.Policy.walk_nudges ~recorder:rec0 ~classify
          (List.map (fun cand -> (cand, attempt eff cand)) candidates)
      with
      | Ok found -> found
      | Error (n, last) ->
        let action =
          match rest with
          | next :: _ -> if next.k3 < eff.k3 then "degrade:h3" else "degrade:h2"
          | [] -> "exhausted"
        in
        Option.iter (Robust.Report.record rec0 ~action) last;
        walk_levels (attempts + n) last rest)
  in
  let s0, (vectors, realized, side) = walk_levels 0 None levels in
  finish ~ctx:"Atmor.reduce" ~t_start ~s0 ~orders:realized
    ~raw_moments:(List.length vectors)
    ~degradation:(Robust.Report.events rec0)
    ~side q (Qr.orth_mat ~tol vectors)

(* Multipoint expansion (paper §4, third bullet: "non-DC or multipoint
   frequency expansion is particularly straightforward with this
   associated transform approach"): union of the moment subspaces
   generated at several expansion points. *)
let reduce_multipoint ?(tol = 1e-8) ?(h3_triples = `All)
    ~(points : float list) ~(orders : orders) (q : Qldae.t) : result =
  require_orders "Atmor.reduce_multipoint" orders;
  if points = [] then invalid_arg "Atmor.reduce_multipoint: no points";
  Obs.Span.with_ ~name:"atmor.reduce_multipoint" @@ fun () ->
  let t_start = Obs.Clock.now () in
  (* The per-point moment blocks are independent, so they fan out over
     [Par] work items.  Each point records into a private recorder —
     sharing one across lanes would race — concatenated in point order
     below, which rebuilds exactly the report a serial left-to-right
     pass over [points] produces. The first point's
     engine and moments are the full model's side of the check. Each
     point runs in its own span, so on a worker lane, where it is a
     root, that span holds all of the lane's work for it. *)
  let per_point =
    Par.map_list
      (fun s0 ->
        Obs.Span.with_ ~name:"atmor.multipoint.point" @@ fun () ->
        Robust.Budget.check "mor.Atmor.reduce_multipoint";
        let rec_p = Robust.Report.recorder () in
        let eng = Assoc.create ~recorder:rec_p ~s0 q in
        let m1 = if orders.k1 > 0 then Assoc.h1_moments eng ~k:orders.k1 else [] in
        let m2 = if orders.k2 > 0 then Assoc.h2_moments eng ~k:orders.k2 else [] in
        let m3 =
          if orders.k3 > 0 then
            Assoc.h3_moments ~triples_mode:h3_triples eng ~k:orders.k3
          else []
        in
        (eng, (m1, m2, m3), rec_p))
      points
  in
  let side =
    let eng, (m1, m2, m3), _ = List.hd per_point in
    Romdiag.side ~triples_mode:h3_triples (Lazy.from_val eng)
      (heads orders.k1 m1, heads orders.k2 m2, heads orders.k3 m3)
  in
  let vectors =
    List.concat_map (fun (_, (m1, m2, m3), _) -> m1 @ m2 @ m3) per_point
  in
  if vectors = [] then invalid_arg "Atmor.reduce_multipoint: no moments";
  finish ~ctx:"Atmor.reduce_multipoint" ~t_start ~s0:(List.hd points) ~orders
    ~raw_moments:(List.length vectors)
    ~degradation:
      (List.concat_map (fun (_, _, rec_p) -> Robust.Report.events rec_p)
         per_point)
    ~side q (Qr.orth_mat ~tol vectors)

(* ---- eq. 18 ablation: Sylvester-decoupled H2 moment generation ----

   Solving G1 Π + G2 = Π (⊕²G1) splits the eq.-17 realization of H2(s)
   into two decoupled branches

     H2(s) = (sI - G1)^-1 (d - Π w) + Π (sI - ⊕²G1)^-1 w

   whose Krylov chains are independent (the paper notes this enables
   parallel subspace generation). Only the SISO/D1 second order is
   decoupled here; H1 (and H3, if requested) moments come from the
   standard engine. Requires the G2 coupling densified (n x n²), so use
   on moderate n. *)

let reduce_sylvester ?s0 ?(tol = 1e-8) ~(orders : orders) (q : Qldae.t) :
    result =
  require_orders "Atmor.reduce_sylvester" orders;
  Contract.require_len "Atmor.reduce_sylvester: SISO only" ~expected:1
    ~actual:(Qldae.n_inputs q);
  Obs.Span.with_ ~name:"atmor.reduce_sylvester" @@ fun () ->
  let t_start = Obs.Clock.now () in
  let eng = Assoc.create ?s0 q in
  let s0v = Assoc.s0 eng in
  let n = Qldae.dim q in
  let m1 = if orders.k1 > 0 then Assoc.h1_moments eng ~k:orders.k1 else [] in
  let m2, h2 =
    if orders.k2 > 0 then begin
      let ks = Assoc.ksolve eng in
      let g2d = Sptensor.to_dense q.Qldae.g2 in
      let pi = Sylvester.solve_pi_schur ~ks ~g2:g2d in
      let b = Qldae.b_col q 0 in
      let w = Kron.vec b b in
      let d =
        if Qldae.has_d1 q then Mat.mul_vec q.Qldae.d1.(0) b else Vec.create n
      in
      (* [k2] steps of the (s0 I - ⊕^k G1) chain from [v], each step
         mapped through [f]; branch 1 is the k = 1 chain of (d - Π w),
         branch 2 Π times the k = 2 chain of w *)
      let branch ~k f v =
        let rec go v j acc =
          Robust.Budget.check "mor.Atmor.reduce_sylvester";
          if j >= orders.k2 then List.rev acc
          else begin
            let v' = Ksolve.solve_shifted_real ks ~k ~sigma:s0v v in
            go v' (j + 1) (f v' :: acc)
          end
        in
        go v 0 []
      in
      let branch1 = branch ~k:1 Fun.id (Vec.sub d (Mat.mul_vec pi w)) in
      let branch2 = branch ~k:2 (Mat.mul_vec pi) w in
      (* eq. 18 at s0: H2(s0) is the sum of the two branch heads *)
      (branch1 @ branch2, [ Vec.add (List.hd branch1) (List.hd branch2) ])
    end
    else ([], [])
  in
  let m3 = if orders.k3 > 0 then Assoc.h3_moments eng ~k:orders.k3 else [] in
  let vectors = m1 @ m2 @ m3 in
  finish ~ctx:"Atmor.reduce_sylvester" ~t_start ~s0:s0v ~orders
    ~raw_moments:(List.length vectors) ~degradation:Robust.Report.empty
    ~side:
      (Romdiag.side (Lazy.from_val eng)
         (heads orders.k1 m1, h2, heads orders.k3 m3))
    q (Qr.orth_mat ~tol vectors)
