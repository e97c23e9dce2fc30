(* Arnoldi iteration with modified Gram-Schmidt and one
   reorthogonalization pass. Produces an orthonormal basis of the Krylov
   subspace K_k(A, b) = span{b, Ab, ..., A^{k-1} b} and the associated
   Hessenberg matrix. The operator is a closure, so the same code serves
   A, A^{-1} (via a factored solve) and shifted variants. *)

open La

type result = {
  v : Mat.t;  (* n x j orthonormal basis, j <= k *)
  h : Mat.t;  (* (j+1) x j Hessenberg (last row = residual norms) *)
  breakdown : bool;  (* true if the subspace became invariant before k *)
}

let run ?recorder ?(context = "arnoldi.run") ~(matvec : Vec.t -> Vec.t)
    ~(b : Vec.t) ~k () : result =
  Contract.require "Arnoldi.run" (k >= 1) "dimension mismatch"
    (Printf.sprintf "k = %d must be >= 1" k);
  Contract.require_finite "Arnoldi.run: b" b;
  Obs.Span.with_ ~name:"arnoldi.run" @@ fun () ->
  let n = Array.length b in
  let nb = Vec.norm2 b in
  if Contract.is_zero nb then invalid_arg "Arnoldi.run: zero start vector";
  let vs = Array.make (k + 1) [||] in
  vs.(0) <- Vec.scale (1.0 /. nb) b;
  let h = Mat.create (k + 1) k in
  let j = ref 0 in
  let breakdown = ref false in
  (* Per-iteration health: the running max of |V^T V - I| costs O(j n)
     per iteration, so it only runs when a sink is listening. *)
  let health_on = Obs.Health.active () in
  let ortho_loss = ref 0.0 in
  let emit_health ~subdiag ~margin =
    Obs.Health.emit
      (Obs.Health.Arnoldi
         {
           context;
           iteration = !j;
           ortho_loss = !ortho_loss;
           subdiag;
           defl_margin = margin;
         })
  in
  (try
     while !j < k do
       (* Budget poll: past the deadline (or the iteration allowance)
          the j+1 columns built so far are still an orthonormal Krylov
          basis matching as many moments, so truncate exactly like a
          breakdown — anytime semantics. *)
       (match
          try
            Robust.Budget.tick_arnoldi_iter "mor.Arnoldi.run";
            None
          with Robust.Error.Error e -> Some e
        with
       | None -> ()
       | Some e ->
         Robust.Report.record_opt recorder ~action:"degrade:truncate-basis" e;
         breakdown := true;
         incr j;
         raise Exit);
       Obs.Metrics.incr Obs.Metrics.Arnoldi_iter;
       (* Nominal MGS charge for this iteration: two passes of (j+1)
          dot+axpy pairs plus the norm and the rescale.  Charged here,
          never inside the sink-gated health block below — cost counts
          must be identical in traced and untraced runs. *)
       Obs.Cost.charge Obs.Cost.Flops_ortho
         ((8 * (!j + 1) * n) + (3 * n))
         ~read:((4 * (!j + 1) * n) + n)
         ~written:((2 * (!j + 1) * n) + n);
       let w = matvec vs.(!j) in
       (* A non-finite operator application (faulty matvec, overflow)
          would poison every later column through MGS; truncate to the
          j columns built so far — still orthonormal — and report. *)
       if not (Vec.is_finite w) then begin
         Robust.Report.record_opt recorder ~action:"degrade:truncate-basis"
           (Robust.Error.Arnoldi_breakdown
              {
                loc = Robust.Error.loc ~subsystem:"mor" ~operation:"Arnoldi.run";
                step = !j;
                residual = 0.0;
              });
         breakdown := true;
         incr j;
         raise Exit
       end;
       (* MGS with one reorthogonalization pass; h accumulates the total
          projection over both passes *)
       for _pass = 0 to 1 do
         for i = 0 to !j do
           let c = Vec.dot vs.(i) w in
           Mat.add_to h i !j c;
           Vec.axpy ~alpha:(-.c) vs.(i) w
         done
       done;
       let nw = Vec.norm2 w in
       Mat.set h (!j + 1) !j nw;
       let defl_threshold = 1e-12 *. (1.0 +. nb) in
       let margin = nw /. defl_threshold in
       Obs.Qhist.observe "arnoldi.subdiag" nw;
       Obs.Qhist.observe "arnoldi.defl_margin" margin;
       if nw <= defl_threshold then begin
         if health_on then emit_health ~subdiag:nw ~margin;
         breakdown := true;
         incr j;
         raise Exit
       end;
       vs.(!j + 1) <- Vec.scale (1.0 /. nw) w;
       if health_on then begin
         let vnew = vs.(!j + 1) in
         for i = 0 to !j do
           ortho_loss := Float.max !ortho_loss (Float.abs (Vec.dot vs.(i) vnew))
         done;
         ortho_loss :=
           Float.max !ortho_loss (Float.abs (Vec.dot vnew vnew -. 1.0));
         emit_health ~subdiag:nw ~margin
       end;
       incr j
     done
   with Exit -> ());
  let cols = min !j k in
  let v = Mat.create n cols in
  for c = 0 to cols - 1 do
    Mat.set_col v c vs.(c)
  done;
  (* Krylov basis boundary: MGS + reorthogonalization must deliver an
     orthonormal V (VMOR_CHECKS-gated) *)
  Contract.require_orthonormal "Arnoldi.run: V" ~rows:n ~cols (Mat.data v);
  { v; h = Mat.submatrix h ~row:0 ~col:0 ~rows:(cols + 1) ~cols; breakdown = !breakdown }

(* Krylov basis of K_k((s0 I - A)^-1, (s0 I - A)^-1 b) — the
   moment-matching subspace of an LTI system about s0. *)
let shifted_krylov ?recorder ~(a : Mat.t) ~(b : Vec.t) ~s0 ~k () : result =
  Contract.require_square "Arnoldi.shifted_krylov" (Mat.dims a);
  Contract.require_len "Arnoldi.shifted_krylov: b" ~expected:(Mat.rows a)
    ~actual:(Array.length b);
  let n = Mat.rows a in
  let m = Mat.sub (Mat.scale s0 (Mat.identity n)) a in
  let lu = Lu.factor m in
  if Obs.Health.active () then
    Obs.Health.emit
      (Obs.Health.Cond
         { context = "arnoldi.shifted_resolvent"; dim = n; cond = Lu.condest lu });
  run ?recorder ~context:"arnoldi.shifted" ~matvec:(Lu.solve lu)
    ~b:(Lu.solve lu b) ~k ()
