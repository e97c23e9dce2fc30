(* Associated transforms of the high-order Volterra transfer functions —
   the paper's core contribution (§2.2-2.3).

   Theorem 1 (+ corollary) and Theorem 2 collapse the multivariate
   H2(s1,s2), H3(s1,s2,s3) into single-s functions built from Kronecker
   sums of G1. With inputs a, b, c (columns b_a of B) and the symmetric
   couplings stored in {!Qldae}:

     H2^{ab}(s) = (sI-G1)^-1 ( G2 (sI - ⊕²G1)^-1 w_ab + d_ab )
         w_ab = sym(b_a ⊗ b_b),  d_ab = (D1_a b_b + D1_b b_a)/2

   (paper eq. 17: the (n+n²)-state LTI realization), and

     H3^{abc}(s) = (sI-G1)^-1 [ (2/3) Σ_pairings G2 W^(i;jk)(s)
                                + (1/3) Σ_pairings D1_i H2^{jk}(s)
                                + G3 (sI - ⊕³G1)^-1 q_abc ]

     W^(i;jk)(s) = (I_n ⊗ c~2)(sI - G1 ⊕ A~2)^-1 (b_i ⊗ b~2^{jk})
                 = N2(s)^-1 [ b_i ⊗ d_jk + (I ⊗ G2) N3(s)^-1 (b_i ⊗ w_jk) ]

   with N2(s) = sI - ⊕²G1, N3(s) = sI - ⊕³G1 (the G1 ⊕ A~2 operator is
   block-triangular with those diagonal blocks, so it is never formed).
   The paper's printed third-order formula abbreviates the D1 part as
   "D1² b"; the D1_i H2^{jk}(s) term above is the full expression (it
   contains D1² b through H2's own D1 feed-through).

   The pairings' N3 right-hand sides sum to the cubic one,

     Σ_pairings b_i ⊗ w_jk = 3 sym³(b_a, b_b, b_c) = 3 q_abc,

   and everything after them is linear and pairing-independent, so

     (2/3) Σ_pairings W^(i;jk)(s) = 2 N2(s)^-1 [ p_abc + (I ⊗ G2) N3(s)^-1 q_abc ],
         p_abc = (1/3) Σ_pairings b_i ⊗ d_jk:

   one N3 solve per triple, shared with the G3 term, and one N2 solve.

   q_abc is invariant under permutations of its three indices, and so
   is ⊕³G1, so every N3 series iterate is fully symmetric: it is solved
   on its i <= j <= l entries only (Ksolve.tri_solve_sym3, about a
   sixth of the work), and the G2 coupling, symmetric in its trailing
   pair, multiplies n(n+1)/2 packed columns instead of n² (DESIGN.md §2).

   Moments: Taylor coefficients about a real expansion point s0
   (s0 = 0 when G1 is invertible, s0 > 0 for quadratized diode circuits
   whose augmented G1 has nullity = #diodes — see DESIGN.md). All series
   are generated by resolvent recursions; every n²/n³ operation goes
   through the structured Kronecker-sum solver {!La.Ksolve}, so nothing
   of size n² x n² is ever materialized. The m-th vector produced is
   the exact coefficient of (-δ)^m, i.e. (-1)^m times the Taylor
   coefficient — the sign is irrelevant for subspace spanning and
   accounted for in tests. *)

open La

type t = {
  q : Qldae.t;
  s0 : float;
  policy : Robust.Policy.t;
  recorder : Robust.Report.recorder option;
  fault : Robust.Faultify.t option;  (* injected on msolve outputs *)
  ladder : Ladder.t;  (* (s0 I - G1) through LU -> pivoted QR -> Tikhonov *)
  ks : Ksolve.t lazy_t;  (* Schur of G1 for Kronecker-sum solves *)
  g2_sym : Cmat.t lazy_t;
      (* n x n(n+1)/2: column (j <= l) is G2 (u_j ⊗ u_l + u_l ⊗ u_j), or
         G2 (u_j ⊗ u_j) at j = l — the right half of the Schur-basis
         coupling U^H G2 (U ⊗ U) on data symmetric in its trailing pair
         (see h3_moment_series) *)
  g3_lead : (int * (int * (int * int * float) array) array) array lazy_t;
      (* G3's entries grouped by leading index i1, then by i2:
         (i1, [| (i2, [| (row, i3, coeff) |]) |]), the contraction plan
         of apply_g3_schur *)
}

(* consecutive runs of equal [key] in a list, in order *)
let runs key l =
  List.fold_right
    (fun x acc ->
      match acc with
      | (k, xs) :: rest when k = key x -> (k, x :: xs) :: rest
      | _ -> (key x, [ x ]) :: acc)
    l []

let default_s0 (q : Qldae.t) =
  (* Quadratized diode circuits have singular G1 (see DESIGN.md): their
     moments must expand at s0 > 0. A borderline-singular LU pivot is
     the cheap detector. *)
  if Qldae.has_d1 q then 1.0
  else begin
    match Lu.factor q.Qldae.g1 with
    | exception Lu.Singular _ -> 1.0
    | lu ->
      let n = Qldae.dim q in
      let d = Float.abs (Lu.det lu) ** (1.0 /. float_of_int n) in
      if d < 1e-6 then 1.0 else 0.0
  end

let create ?recorder ?(policy = Robust.Policy.default ()) ?fault ?s0
    (q : Qldae.t) : t =
  let s0 = match s0 with Some s -> s | None -> default_s0 q in
  let n = Qldae.dim q in
  let m = Mat.sub (Mat.scale s0 (Mat.identity n)) q.Qldae.g1 in
  let ks =
    lazy
      (let ks = Ksolve.prepare q.Qldae.g1 in
       (* Conditioning of the shifted Kronecker-sum operators the
          higher-order series will run through — sampled off the Schur
          eigenvalues, so cheap enough to record at first use. *)
       if Obs.Health.active () then begin
         let sigma = { Complex.re = s0; im = 0.0 } in
         List.iter
           (fun k ->
             Obs.Health.emit
               (Obs.Health.Cond
                  {
                    context = Printf.sprintf "assoc.ksum.k%d" k;
                    dim = n;
                    cond = Ksolve.cond_estimate ks ~k ~sigma;
                  }))
           [ 2; 3 ]
       end;
       ks)
  in
  let g2_sym =
    lazy
      (let u = Ksolve.unitary (Lazy.force ks) in
       let ure = u.Cmat.re and uim = u.Cmat.im in
       let out = Cmat.create n (n * (n + 1) / 2) in
       let ore_ = out.Cmat.re and oim = out.Cmat.im in
       (* accumulated straight off the sparse entries: entry
          (row, (i1, i2), c) adds c (U[i1,j] U[i2,l] + U[i1,l] U[i2,j])
          to packed column (j <= l), the second product dropped at
          j = l *)
       List.iter
         (fun (row, (idx : int array), coeff) ->
           let i1 = idx.(0) * n and i2 = idx.(1) * n in
           let col = ref (row * (n * (n + 1) / 2)) in
           for j = 0 to n - 1 do
             let ar = ure.(i1 + j) and ai = uim.(i1 + j) in
             let br = ure.(i2 + j) and bi = uim.(i2 + j) in
             for l = j to n - 1 do
               let cr = ure.(i1 + l) and ci = uim.(i1 + l) in
               let dr = ure.(i2 + l) and di = uim.(i2 + l) in
               let vr = (ar *. dr) -. (ai *. di)
               and vi = (ar *. di) +. (ai *. dr) in
               let vr = if l = j then vr else vr +. ((cr *. br) -. (ci *. bi))
               and vi = if l = j then vi else vi +. ((cr *. bi) +. (ci *. br)) in
               ore_.(!col) <- ore_.(!col) +. (coeff *. vr);
               oim.(!col) <- oim.(!col) +. (coeff *. vi);
               incr col
             done
           done)
         (Sptensor.entries q.Qldae.g2);
       out)
  in
  let g3_lead =
    lazy
      (List.stable_sort
         (fun (_, x, _) (_, y, _) -> compare (x.(0), x.(1)) (y.(0), y.(1)))
         (Sptensor.entries q.Qldae.g3)
      |> runs (fun (_, idx, _) -> idx.(0))
      |> List.map (fun (i1, es) ->
             ( i1,
               runs (fun (_, idx, _) -> idx.(1)) es
               |> List.map (fun (i2, es) ->
                      ( i2,
                        Array.of_list
                          (List.map (fun (row, idx, c) -> (row, idx.(2), c)) es) ))
               |> Array.of_list ))
      |> Array.of_list)
  in
  let ladder =
    Ladder.make ?recorder ~mu:policy.Robust.Policy.tikhonov_mu
      ~loc:(Robust.Error.loc ~subsystem:"volterra" ~operation:"Assoc.msolve")
      m
  in
  (* Conditioning of (s0 I - G1): the ladder factors its LU rung
     eagerly, so the estimate reuses that factorization. *)
  (if Obs.Health.active () then
     match Ladder.lu ladder with
     | Some lu ->
       Obs.Health.emit
         (Obs.Health.Cond
            { context = "assoc.resolvent"; dim = n; cond = Lu.condest lu })
     | None -> ());
  {
    q;
    s0;
    policy;
    recorder;
    fault = Option.map Robust.Faultify.make fault;
    ladder;
    ks;
    g2_sym;
    g3_lead;
  }

let s0 t = t.s0

let qldae t = t.q

let report t =
  match t.recorder with
  | None -> Robust.Report.empty
  | Some r -> Robust.Report.events r

(* Regularization strength for shifted Kronecker-sum retries, scaled to
   the expansion point so the pole displacement stays relative. *)
let reg_mu t = t.policy.Robust.Policy.tikhonov_mu *. (1.0 +. Float.abs t.s0)

let nsolve_loc = Robust.Error.loc ~subsystem:"volterra" ~operation:"Assoc.nsolve"

(* (s0 I - G1)^-1 v, through the fallback ladder; the fault-injection
   hook corrupts the output on scheduled calls. Every moment of every
   order ends in an msolve, so this one hook covers H1/H2/H3. *)
let msolve t v =
  let x = Ladder.solve t.ladder v in
  match t.fault with None -> x | Some f -> Robust.Faultify.inject f x

(* (s0 I - ⊕^k G1)^-1 v; a near-singular shift retries once with the
   Tikhonov-regularized scalar inverse (minimum-norm at exact poles). *)
let nsolve t ~k v =
  let ks = Lazy.force t.ks in
  try Ksolve.solve_shifted_real ks ~k ~sigma:t.s0 v
  with
  | Ksolve.Near_singular d when t.policy.Robust.Policy.tikhonov_mu > 0.0 ->
    Robust.Report.record_opt t.recorder ~action:"fallback:tikhonov"
      (Robust.Error.Singular_solve
         { loc = nsolve_loc; shift = t.s0; distance = d });
    Ksolve.solve_shifted_real_reg ks ~k ~sigma:t.s0 ~mu:(reg_mu t) v

(* A Schur-basis triangular solve [solve ~mu] (mu = 0: unregularized)
   with the same retry semantics as {!nsolve}, for the third-order
   series recursion. *)
let tri_robust t solve v =
  try solve ~mu:0.0 v
  with
  | Ksolve.Near_singular d when t.policy.Robust.Policy.tikhonov_mu > 0.0 ->
    Robust.Report.record_opt t.recorder ~action:"fallback:tikhonov"
      (Robust.Error.Singular_solve
         { loc = nsolve_loc; shift = t.s0; distance = d });
    solve ~mu:(reg_mu t) v

(* symmetrized Kronecker pair of input columns *)
let w_pair (q : Qldae.t) a b =
  let ba = Qldae.b_col q a and bb = Qldae.b_col q b in
  if a = b then Kron.vec ba bb
  else
    Vec.scale 0.5 (Vec.add (Kron.vec ba bb) (Kron.vec bb ba))

let d_pair (q : Qldae.t) a b =
  let ba = Qldae.b_col q a and bb = Qldae.b_col q b in
  let v = Vec.create (Qldae.dim q) in
  if Qldae.has_d1 q then begin
    Vec.axpy ~alpha:0.5 (Mat.mul_vec q.Qldae.d1.(a) bb) v;
    Vec.axpy ~alpha:0.5 (Mat.mul_vec q.Qldae.d1.(b) ba) v
  end;
  v

(* unordered input pairs / triples *)
let pairs m = List.concat (List.init m (fun a -> List.init (m - a) (fun i -> (a, a + i))))

let triples mode m =
  match mode with
  | `Diagonal -> List.init m (fun a -> (a, a, a))
  | `All ->
    List.concat
      (List.init m (fun a ->
           List.concat
             (List.init (m - a) (fun i ->
                  List.init (m - a - i) (fun j -> (a, a + i, a + i + j))))))

(* VMOR_CHECKS-gated finiteness sweep over a finished moment list: a NaN
   here (near-singular resolvent, overflowing series) would silently
   corrupt the projection basis downstream. *)
let check_moments ctx (vs : Vec.t list) : Vec.t list =
  if Contract.checks_enabled () then
    List.iter (fun v -> Contract.require_finite ctx v) vs;
  vs

(* ---- H1 ---- *)

(* k moment vectors of H1 about s0, for every input column. *)
let h1_moments t ~k : Vec.t list =
  Obs.Span.with_ ~name:"assoc.h1_moments" @@ fun () ->
  let q = t.q in
  check_moments "Assoc.h1_moments"
  @@ List.concat_map
    (fun a ->
      let rec go v j acc =
        if j >= k then List.rev acc
        else begin
          let v' = msolve t v in
          go v' (j + 1) (v' :: acc)
        end
      in
      go (Qldae.b_col q a) 0 [])
    (List.init (Qldae.n_inputs q) Fun.id)

(* ---- H2 ---- *)

(* Series engine for one input pair: returns moments m_0 .. m_{k-1} of
   H2^{ab}(s) about s0 (coefficients of (-δ)^m). *)
let h2_moment_series t ~k (a, b) : Vec.t list =
  if k <= 0 then []
  else begin
    let q = t.q in
    let w = w_pair q a b and d = d_pair q a b in
    let g2r r = Sptensor.apply_flat q.Qldae.g2 r in
    let r = ref (nsolve t ~k:2 w) in
    let m0 = msolve t (Vec.add (g2r !r) d) in
    let acc = ref [ m0 ] and prev = ref m0 in
    for _ = 1 to k - 1 do
      r := nsolve t ~k:2 !r;
      let m = msolve t (Vec.add !prev (g2r !r)) in
      acc := m :: !acc;
      prev := m
    done;
    List.rev !acc
  end

let h2_moments t ~k : Vec.t list =
  if not (Qldae.has_g2 t.q || Qldae.has_d1 t.q) then []
  else
    Obs.Span.with_ ~name:"assoc.h2_moments" @@ fun () ->
    check_moments "Assoc.h2_moments"
      (List.concat_map (h2_moment_series t ~k) (pairs (Qldae.n_inputs t.q)))

(* ---- H3 ---- *)

(* (I ⊗ G2) z for a flat n³ vector: apply G2 to each leading slice. *)
let i_kron_g2 (q : Qldae.t) (z : Vec.t) : Vec.t =
  let n = Qldae.dim q in
  let n2 = n * n in
  let out = Vec.create (n * n) in
  for i = 0 to n - 1 do
    let slice = Vec.slice z ~pos:(i * n2) ~len:n2 in
    let gi = Sptensor.apply_flat q.Qldae.g2 slice in
    Array.blit gi 0 out (i * n) n
  done;
  out

(* G3 U^⊗3 r for a Schur-basis order-3 tensor r (real part), with U
   contracted only at G3's stored index triples rather than by three full
   mode transforms (24 n⁴ flops): per distinct leading index i1 one n³
   pass forms y = Σ_j1 U[i1,j1] r[j1,:,:], per distinct (i1,i2) one n²
   pass forms z = Σ_j2 U[i2,j2] y[j2,:], and each entry finishes with
   Re Σ_j3 U[i3,j3] z[j3]. *)
let apply_g3_schur t (r : Cvec.t) : Vec.t =
  let n = Qldae.dim t.q in
  let n2 = n * n in
  let u = Ksolve.unitary (Lazy.force t.ks) in
  let ure = u.Cmat.re and uim = u.Cmat.im in
  let plan = Lazy.force t.g3_lead in
  let n_lead = Array.length plan in
  let n_pair = Array.fold_left (fun s (_, g) -> s + Array.length g) 0 plan in
  let nnz = Sptensor.nnz t.q.Qldae.g3 in
  Obs.Cost.charge Obs.Cost.Flops_tensor
    ((8 * n_lead * n * n2) + (8 * n_pair * n2) + (nnz * ((4 * n) + 2)))
    ~read:((n_lead * 2 * (n + 1) * n2) + (n_pair * 4 * n2) + (nnz * 4 * n))
    ~written:((n_lead * 2 * n2) + (n_pair * 2 * n) + nnz);
  let out = Vec.create n in
  let yre = Array.make n2 0.0 and yim = Array.make n2 0.0 in
  let zre = Array.make n 0.0 and zim = Array.make n 0.0 in
  Array.iter
    (fun (i1, by_i2) ->
      Array.fill yre 0 n2 0.0;
      Array.fill yim 0 n2 0.0;
      for j1 = 0 to n - 1 do
        let cr = ure.((i1 * n) + j1) and ci = uim.((i1 * n) + j1) in
        if Contract.nonzero cr || Contract.nonzero ci then begin
          let base = j1 * n2 in
          for x = 0 to n2 - 1 do
            let rr = r.Cvec.re.(base + x) and ri = r.Cvec.im.(base + x) in
            yre.(x) <- yre.(x) +. ((cr *. rr) -. (ci *. ri));
            yim.(x) <- yim.(x) +. ((cr *. ri) +. (ci *. rr))
          done
        end
      done;
      Array.iter
        (fun (i2, es) ->
          for j3 = 0 to n - 1 do
            let sre = ref 0.0 and sim = ref 0.0 in
            for j2 = 0 to n - 1 do
              let cr = ure.((i2 * n) + j2) and ci = uim.((i2 * n) + j2) in
              let vr = yre.((j2 * n) + j3) and vi = yim.((j2 * n) + j3) in
              sre := !sre +. ((cr *. vr) -. (ci *. vi));
              sim := !sim +. ((cr *. vi) +. (ci *. vr))
            done;
            zre.(j3) <- !sre;
            zim.(j3) <- !sim
          done;
          Array.iter
            (fun (row, i3, coeff) ->
              let x = ref 0.0 in
              for j3 = 0 to n - 1 do
                x :=
                  !x
                  +. ((ure.((i3 * n) + j3) *. zre.(j3))
                     -. (uim.((i3 * n) + j3) *. zim.(j3)))
              done;
              out.(row) <- out.(row) +. (coeff *. !x))
            es)
        by_i2)
    plan;
  out

(* sym³(x0, x1, x2) = (1/6) Σ_perms x_a ⊗ x_b ⊗ x_c, written in one pass
   on the entries i <= j <= l only (zeros elsewhere): all that
   Ksolve.tri_solve_sym3 reads. Each entry adds the six products
   (x_a[i] x_b[j]) x_c[l] / 6 in a fixed order. *)
let sym3_upper n (x : Cvec.t array) : Cvec.t =
  let q3 = Cvec.create (n * n * n) in
  let perms = [| 0; 1; 2; 0; 2; 1; 1; 0; 2; 1; 2; 0; 2; 0; 1; 2; 1; 0 |] in
  let sixth = 1.0 /. 6.0 in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      for l = j to n - 1 do
        let at = (((i * n) + j) * n) + l in
        for s = 0 to 5 do
          let xa = x.(perms.(3 * s))
          and xb = x.(perms.((3 * s) + 1))
          and xc = x.(perms.((3 * s) + 2)) in
          let ar = xa.Cvec.re.(i) and ai = xa.Cvec.im.(i) in
          let br = xb.Cvec.re.(j) and bi = xb.Cvec.im.(j) in
          let cr = xc.Cvec.re.(l) and ci = xc.Cvec.im.(l) in
          let pr = (ar *. br) -. (ai *. bi) and pi = (ar *. bi) +. (ai *. br) in
          q3.Cvec.re.(at) <-
            q3.Cvec.re.(at) +. (sixth *. ((pr *. cr) -. (pi *. ci)));
          q3.Cvec.im.(at) <-
            q3.Cvec.im.(at) +. (sixth *. ((pr *. ci) +. (pi *. cr)))
        done
      done
    done
  done;
  q3

(* Moments of H3^{abc}(s) about s0 for one input triple.

   All n³-sized series iterates are kept in the Schur basis of G1, so
   each order costs one triangular tensor back-substitution plus one
   application of the Schur-basis coupling — never a full set of
   unitary mode transforms. The identity making this work:

     (U^H ⊗ U^H ⊗ U^H)(I ⊗ G2)(U ⊗ U ⊗ U) = I ⊗ (U^H G2 (U ⊗ U)),

   so the block coupling C = I ⊗ G2 of the (sI - G1 ⊕ A~2)^-1 solve acts
   slice-wise through G2 (U ⊗ U); on the symmetric r_m below only its
   packed symmetrized columns g2_sym are needed.

   With the pairings folded (header), one ⊕³ series
   r_m = (s0 - ⊕³T)^-(m+1) q_abc, symmetric and solved by
   Ksolve.tri_solve_sym3, serves the coupling and the G3 term,
   and one ⊕² state carries the G2 term:

     w_0 = (s0 - ⊕²T)^-1 (p_abc + C r_0),   w_m = (s0 - ⊕²T)^-1 (w_{m-1} + C r_m),

   so the inner term of order m is
   2 G2 U^⊗2 w_m + (1/3) Σ_pairings D1_i H2^{jk}_m + G3 U^⊗3 r_m,
   with one H2 series per distinct pair (j,k). *)
let h3_moment_series t ~k (a, b, c) : Vec.t list =
  if k <= 0 then []
  else begin
    let q = t.q in
    let n = Qldae.dim q in
    let has_g2 = Qldae.has_g2 q and has_g3 = Qldae.has_g3 q in
    let has_d1 = Qldae.has_d1 q in
    let ks = Lazy.force t.ks in
    let sigma = { Complex.re = t.s0; im = 0.0 } in
    let tri2 =
      tri_robust t (fun ~mu -> Ksolve.tri_solve_shifted ~mu ks ~k:2 ~sigma)
    in
    let tri3 = tri_robust t (fun ~mu -> Ksolve.tri_solve_sym3 ~mu ks ~sigma) in
    let u = Ksolve.unitary ks in
    let pairings = [ (a, (b, c)); (b, (a, c)); (c, (a, b)) ] in
    (* apply C^ = I ⊗ (U^H G2 (U ⊗ U)) to a Schur-basis order-3 tensor
       symmetric in its trailing pair: slice-wise dense matvec against
       the packed columns of g2_sym (reading z[i, j <= l] only),
       followed by U^H *)
    let apply_coupling (z : Cvec.t) : Cvec.t =
      let m1 = Lazy.force t.g2_sym in
      let n2 = n * n and np = n * (n + 1) / 2 in
      (* Hand-rolled dense complex n x n(n+1)/2 matvec per slice, n
         slices: 8 flops per complex multiply-add.  The trailing U^H
         rotations (Cmat.mul_vec_adjoint) charge themselves. *)
      Obs.Cost.charge Obs.Cost.Flops_tensor (8 * n * n * np)
        ~read:((2 * n * np) + (2 * n * np)) ~written:(2 * n * n);
      let out = Cvec.create (n * n) in
      let tmp = Cvec.create n in
      for i = 0 to n - 1 do
        (* tmp = m1 * z[i, j <= l] *)
        for r = 0 to n - 1 do
          let sre = ref 0.0 and sim = ref 0.0 in
          let col = ref (r * np) in
          for j = 0 to n - 1 do
            let zb = (i * n2) + (j * n) in
            for l = j to n - 1 do
              let mr = m1.Cmat.re.(!col) and mi = m1.Cmat.im.(!col) in
              let zr = z.Cvec.re.(zb + l) and zi = z.Cvec.im.(zb + l) in
              sre := !sre +. ((mr *. zr) -. (mi *. zi));
              sim := !sim +. ((mr *. zi) +. (mi *. zr));
              incr col
            done
          done;
          tmp.Cvec.re.(r) <- !sre;
          tmp.Cvec.im.(r) <- !sim
        done;
        let hat = Cmat.mul_vec_adjoint u tmp in
        Array.blit hat.Cvec.re 0 out.Cvec.re (i * n) n;
        Array.blit hat.Cvec.im 0 out.Cvec.im (i * n) n
      done;
      out
    in
    (* r_0 from q = sym³ of the triple's Schur input columns *)
    let r =
      if has_g2 || has_g3 then
        Some
          (ref
             (tri3
                (sym3_upper n
                   (Array.map
                      (fun i -> Ksolve.adjoint_vec ks (Qldae.b_col q i))
                      [| a; b; c |]))))
      else None
    in
    (* the merged ⊕² state w_m *)
    let w =
      match r with
      | Some r when has_g2 ->
        let p = Cvec.create (n * n) in
        if has_d1 then
          List.iter
            (fun (i, (j, l)) ->
              let dhat = Cmat.mul_vec_adjoint u (Cvec.of_real (d_pair q j l)) in
              Cvec.axpy
                ~alpha:{ Complex.re = 1.0 /. 3.0; im = 0.0 }
                (Cvec.kron (Ksolve.adjoint_vec ks (Qldae.b_col q i)) dhat)
                p)
            pairings;
        Some (ref (tri2 (Cvec.add p (apply_coupling !r))))
      | _ -> None
    in
    (* D1 part: one H2 series per distinct input pair, shared by the
       pairings that use it *)
    let d1_terms =
      if has_d1 then begin
        let cache = Hashtbl.create 3 in
        List.map
          (fun (i, (j, l)) ->
            let key = (min j l, max j l) in
            let series =
              match Hashtbl.find_opt cache key with
              | Some s -> s
              | None ->
                let s = Array.of_list (h2_moment_series t ~k key) in
                Hashtbl.add cache key s;
                s
            in
            (q.Qldae.d1.(i), series))
          pairings
      end
      else []
    in
    let inner m_index =
      let acc = Vec.create n in
      Option.iter
        (fun w ->
          (* W_m back in original coordinates (real up to rounding) *)
          let w_m = Cvec.real_part (Ksolve.from_schur ks ~k:2 !w) in
          Vec.axpy ~alpha:2.0 (Sptensor.apply_flat q.Qldae.g2 w_m) acc)
        w;
      List.iter
        (fun (d1, series) ->
          Vec.axpy ~alpha:(1.0 /. 3.0) (Mat.mul_vec d1 series.(m_index)) acc)
        d1_terms;
      (match r with
      | Some r when has_g3 -> Vec.axpy ~alpha:1.0 (apply_g3_schur t !r) acc
      | _ -> ());
      acc
    in
    let advance () =
      Option.iter
        (fun r ->
          r := tri3 !r;
          Option.iter (fun w -> w := tri2 (Cvec.add !w (apply_coupling !r))) w)
        r
    in
    let m0 = msolve t (inner 0) in
    let acc = ref [ m0 ] and prev = ref m0 in
    for m = 1 to k - 1 do
      advance ();
      let hm = msolve t (Vec.add !prev (inner m)) in
      acc := hm :: !acc;
      prev := hm
    done;
    List.rev !acc
  end

let h3_moments ?(triples_mode = `All) t ~k : Vec.t list =
  let q = t.q in
  if not (Qldae.has_g2 q || Qldae.has_g3 q || Qldae.has_d1 q) then []
  else
    Obs.Span.with_ ~name:"assoc.h3_moments" @@ fun () ->
    check_moments "Assoc.h3_moments"
      (List.concat_map (h3_moment_series t ~k) (triples triples_mode (Qldae.n_inputs q)))

(* ---- single-s evaluation of the associated transfer functions ---- *)

(* complex resolvent solve (sI - G1)^-1 v *)
let msolve_c t (s : Complex.t) (v : Cvec.t) : Cvec.t =
  Clu.solve_shifted t.q.Qldae.g1 s v

let nsolve_c t ~k (s : Complex.t) (v : Cvec.t) : Cvec.t =
  Ksolve.solve_shifted (Lazy.force t.ks) ~k ~sigma:s v

let i_kron_g2_c (q : Qldae.t) (z : Cvec.t) : Cvec.t =
  Cvec.make
    ~re:(i_kron_g2 q (Cvec.real_part z))
    ~im:(i_kron_g2 q (Cvec.imag_part z))

(* H2^{ab}(s) = A2(H2^{ab}(s1,s2)) evaluated at a complex s. *)
let h2_eval t ~inputs:(a, b) (s : Complex.t) : Cvec.t =
  let q = t.q in
  let r = nsolve_c t ~k:2 s (Cvec.of_real (w_pair q a b)) in
  let g2r =
    Cvec.make
      ~re:(Sptensor.apply_flat q.Qldae.g2 (Cvec.real_part r))
      ~im:(Sptensor.apply_flat q.Qldae.g2 (Cvec.imag_part r))
  in
  let rhs = Cvec.add g2r (Cvec.of_real (d_pair q a b)) in
  msolve_c t s rhs

(* H3^{abc}(s) = A3(H3^{abc}) evaluated at a complex s. *)
let h3_eval t ~inputs:(a, b, c) (s : Complex.t) : Cvec.t =
  let q = t.q in
  let n = Qldae.dim q in
  let acc = Cvec.create n in
  let apply_g2 (v : Cvec.t) =
    Cvec.make
      ~re:(Sptensor.apply_flat q.Qldae.g2 (Cvec.real_part v))
      ~im:(Sptensor.apply_flat q.Qldae.g2 (Cvec.imag_part v))
  in
  if Qldae.has_g2 q then
    List.iter
      (fun (i, (j, l)) ->
        let bi = Cvec.of_real (Qldae.b_col q i) in
        let z = nsolve_c t ~k:3 s (Cvec.kron bi (Cvec.of_real (w_pair q j l))) in
        let p = Cvec.kron bi (Cvec.of_real (d_pair q j l)) in
        let w = nsolve_c t ~k:2 s (Cvec.add p (i_kron_g2_c q z)) in
        Cvec.axpy ~alpha:{ Complex.re = 2.0 /. 3.0; im = 0.0 } (apply_g2 w) acc)
      [ (a, (b, c)); (b, (a, c)); (c, (a, b)) ];
  if Qldae.has_d1 q then
    List.iter
      (fun (i, (j, l)) ->
        let h2jl = h2_eval t ~inputs:(j, l) s in
        let d1h2 =
          Cvec.make
            ~re:(Mat.mul_vec q.Qldae.d1.(i) (Cvec.real_part h2jl))
            ~im:(Mat.mul_vec q.Qldae.d1.(i) (Cvec.imag_part h2jl))
        in
        Cvec.axpy ~alpha:{ Complex.re = 1.0 /. 3.0; im = 0.0 } d1h2 acc)
      [ (a, (b, c)); (b, (a, c)); (c, (a, b)) ];
  if Qldae.has_g3 q then begin
    let cols = [| Qldae.b_col q a; Qldae.b_col q b; Qldae.b_col q c |] in
    let q3 = Vec.create (n * n * n) in
    List.iter
      (fun (i, j, l) ->
        Vec.axpy ~alpha:(1.0 /. 6.0)
          (Kron.vec (Kron.vec cols.(i) cols.(j)) cols.(l))
          q3)
      [ (0, 1, 2); (0, 2, 1); (1, 0, 2); (1, 2, 0); (2, 0, 1); (2, 1, 0) ];
    let r = nsolve_c t ~k:3 s (Cvec.of_real q3) in
    let g3r =
      Cvec.make
        ~re:(Sptensor.apply_flat q.Qldae.g3 (Cvec.real_part r))
        ~im:(Sptensor.apply_flat q.Qldae.g3 (Cvec.imag_part r))
    in
    Cvec.axpy ~alpha:Complex.one g3r acc
  end;
  msolve_c t s acc
