(* NORM baseline (Li & Pileggi, DAC'03 / TCAD'05): projection NMOR by
   *multivariate* moment matching of H2(s1,s2) and H3(s1,s2,s3).

   Expanding each frequency axis independently about s0 makes the
   spanning set combinatorial: matching k2 second-order moments needs
   every vector

     ((2s0)I - G1)^-(l+1) G2 (chain_p ⊗ chain_q),   l + p + q <= k2 - 1
     ((2s0)I - G1)^-(l+1) D1 chain_p,               l + p     <= k2 - 1

   — O(k2³) vectors — and the third order costs O(k3⁴). This is the
   "dimensionality curse" the associated transform removes; the module
   is the paper's comparison baseline (§3.2-3.3, Table 1). Chains about
   a sum of j frequency axes use the shifted matrix (j s0) I - G1. *)

open La
open Volterra

type result = Atmor.result

let order = Atmor.order

let reduce ?s0 ?(tol = 1e-8) ~(orders : Atmor.orders) (q : Qldae.t) : result =
  Atmor.require_orders "Norm.reduce" orders;
  Obs.Span.with_ ~name:"norm.reduce" @@ fun () ->
  let t_start = Obs.Clock.now () in
  (* reuse the Assoc default so both methods expand at the same point;
     the engine is built only for that default or for the health check *)
  let eng = lazy (Assoc.create ?s0 q) in
  let s0 = match s0 with Some s -> s | None -> Assoc.s0 (Lazy.force eng) in
  let n = Qldae.dim q in
  let m = Qldae.n_inputs q in
  let { Atmor.k1; k2; k3 } = orders in
  let shifted j =
    Lu.factor
      (Mat.sub (Mat.scale (float_of_int j *. s0) (Mat.identity n)) q.Qldae.g1)
  in
  let lu1 = shifted 1 in
  let lu2 = if k2 > 0 || k3 > 0 then Some (shifted 2) else None in
  let lu3 = if k3 > 0 then Some (shifted 3) else None in
  let depth1 = max k1 (max k2 k3) in
  (* chains.(a).(p) = ((s0)I - G1)^-(p+1) b_a *)
  let chains =
    Array.init m (fun a ->
        let out = Array.make (max depth1 1) (Qldae.b_col q a) in
        let v = ref (Qldae.b_col q a) in
        for p = 0 to depth1 - 1 do
          v := Lu.solve lu1 !v;
          out.(p) <- !v
        done;
        out)
  in
  let vectors = ref [] in
  let push v = vectors := v :: !vectors in
  (* H1 moments *)
  for a = 0 to m - 1 do
    for p = 0 to k1 - 1 do
      push chains.(a).(p)
    done
  done;
  (* Second-order multivariate moments. [second] memoizes
     (vector, total order) pairs of the H2 coefficient vectors needed
     again inside the third order. *)
  let second : (Vec.t * int) list ref = ref [] in
  (if k2 > 0 || k3 > 0 then begin
     let lu2 = Option.get lu2 in
     let kmax = max k2 k3 in
     for a = 0 to m - 1 do
       for b = a to m - 1 do
         (* G2 (chain_p ⊗ chain_q) with l levels of the 2s0 resolvent *)
         for p = 0 to kmax - 1 do
           for qq = 0 to kmax - 1 - p do
             let base =
               Sptensor.apply_kron q.Qldae.g2
                 [| chains.(a).(p); chains.(b).(qq) |]
             in
             let v = ref base in
             for l = 0 to kmax - 1 - p - qq do
               v := Lu.solve lu2 !v;
               let total = l + p + qq in
               if total < k2 then push !v;
               if total < k3 then second := (!v, total) :: !second
             done
           done
         done;
         (* D1 feed-through chains *)
         if Qldae.has_d1 q && a = b then
           for p = 0 to kmax - 1 do
             let base = Mat.mul_vec q.Qldae.d1.(a) chains.(a).(p) in
             let v = ref base in
             for l = 0 to kmax - 1 - p do
               v := Lu.solve lu2 !v;
               let total = l + p in
               if total < k2 then push !v;
               if total < k3 then second := (!v, total) :: !second
             done
           done
       done
     done
   end);
  (* Third-order multivariate moments. *)
  (if k3 > 0 then begin
     let lu3 = Option.get lu3 in
     (* (a) G2 (H1-chain ⊗ H2-vector) and D1 H2-vector terms *)
     List.iter
       (fun (v2, ord2) ->
         for a = 0 to m - 1 do
           if Qldae.has_g2 q then
             for p = 0 to k3 - 1 - ord2 do
               let base =
                 Sptensor.apply_kron q.Qldae.g2 [| chains.(a).(p); v2 |]
               in
               let v = ref base in
               for _l = 0 to k3 - 1 - ord2 - p do
                 v := Lu.solve lu3 !v;
                 push !v
               done
             done;
           if Qldae.has_d1 q then begin
             let v = ref (Mat.mul_vec q.Qldae.d1.(a) v2) in
             for _l = 0 to k3 - 1 - ord2 do
               v := Lu.solve lu3 !v;
               push !v
             done
           end
         done)
       !second;
     (* (b) cubic G3 (chain ⊗ chain ⊗ chain) terms *)
     if Qldae.has_g3 q then
       for a = 0 to m - 1 do
         for b = a to m - 1 do
           for c = b to m - 1 do
             for p = 0 to k3 - 1 do
               for qq = 0 to k3 - 1 - p do
                 for r = 0 to k3 - 1 - p - qq do
                   let base =
                     Sptensor.apply_kron q.Qldae.g3
                       [| chains.(a).(p); chains.(b).(qq); chains.(c).(r) |]
                   in
                   let v = ref base in
                   for _l = 0 to k3 - 1 - p - qq - r do
                     v := Lu.solve lu3 !v;
                     push !v
                   done
                 done
               done
             done
           done
         done
       done
   end);
  let vectors = List.rev !vectors in
  if vectors = [] then invalid_arg "Norm.reduce: no moments requested";
  (* NORM steps no associated-transform H2/H3 series: only its H1
     heads are checked *)
  let h1 =
    if k1 > 0 then Array.to_list (Array.map (fun c -> c.(0)) chains) else []
  in
  Atmor.finish ~ctx:"Norm.reduce" ~t_start ~s0 ~orders
    ~raw_moments:(List.length vectors) ~degradation:Robust.Report.empty
    ~side:(Romdiag.side eng (h1, [], []))
    q (Qr.orth_mat ~tol vectors)
