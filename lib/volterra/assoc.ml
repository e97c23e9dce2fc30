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
   on its i <= j <= l entries only (Ksolve.tri_solve_sym3_real, about a
   sixth of the work), and the G2 coupling, symmetric in its trailing
   pair, multiplies n(n+1)/2 packed columns instead of n² (DESIGN.md §2).

   Every n²/n³ series state lives in the Schur basis G1 = U T Uᵀ: it
   starts from the Uᵀ images of input columns (O(n²)/O(n³), no mode
   transform), steps by triangular solves with ⊕^k T, and is read back
   only through the couplings, never by mode transforms: G2 U^⊗2 w
   through the same packed columns (g2_read, which needs only G2's
   symmetry, so it serves the non-symmetric merged ⊕² state too) and
   G3 U^⊗3 r at G3's stored index triples (apply_g3_schur). An engine
   steps one H2 series per input pair (h2_series), read by the order-2
   moments and by every H3 D1 term that needs the pair.

   Moments: Taylor coefficients about a real expansion point s0
   (s0 = 0 when G1 is invertible, s0 > 0 for quadratized diode circuits
   whose augmented G1 has nullity = #diodes — see DESIGN.md). Every
   order's series is one resolvent chain (see chain) over that order's
   inner terms; every solve, the resolvent's (k = 1) included, goes
   through the structured Kronecker-sum solver {!La.Ksolve} on one Schur
   factorization of G1, so nothing of size n² x n² is ever
   materialized. The m-th vector produced is
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
  ks : Ksolve.t lazy_t;
      (* Schur of G1: every (s0 I - ⊕^k G1) solve, the resolvent at k = 1 *)
  g2_sym : Mat.t lazy_t;
      (* n x n(n+1)/2: column (j <= l) is G2 (u_j ⊗ u_l + u_l ⊗ u_j), or
         G2 (u_j ⊗ u_j) at j = l — G2 (U ⊗ U) on symmetric data: the
         right half of H3's Schur-basis coupling (apply_coupling) and
         the read-out of every ⊕² state (g2_read); built by g2_form *)
  g3_lead : (int * (int * (int * int * float) array) array) array lazy_t;
      (* G3's entries grouped by leading index i1, then by i2:
         (i1, [| (i2, [| (row, i3, coeff) |]) |]), the contraction plan
         of apply_g3_schur *)
  h2 : (int * int, Vec.t Seq.t) Hashtbl.t;
      (* the memoized H2 series of each input pair forced so far, read by
         the order-2 moments and the H3 D1 terms alike (h2_series); new
         with every create and rearm *)
}

(* consecutive runs of equal [key] in a list, in order *)
let runs key l =
  List.fold_right
    (fun x acc ->
      match acc with
      | (k, xs) :: rest when k = key x -> (k, x :: xs) :: rest
      | _ -> (key x, [ x ]) :: acc)
    l []

(* The n x n(n+1)/2 matrix whose row [row], packed column (j <= l), is
   Σ over G2's entries (row, (i1, i2), c) of
   c (U[i1,j] U[i2,l] + U[i1,l] U[i2,j]), the second product dropped
   at j = l, for the row-major n x n U: the symmetrized G2 (U ⊗ U)
   (see g2_read and h3_inner). Per row of G2, with M its n x n slice,
   that is the upper triangle of the symmetric Uᵀ (M + Mᵀ) U, diagonal
   halved: W = (M + Mᵀ) U on the rows p that M + Mᵀ touches, one
   multiply-add per structural entry and column, then Σ_p U[p,j] W[p,l]
   over those d rows, d n(n+1)/2 more. A circuit's sparse row costs a
   few d n(n+1)/2; a dense row (a projected ROM's G2) n³ + n²(n+1)/2.
   Charged at 2 flops per multiply-add. *)
let g2_form (q : Qldae.t) ~(u : float array) : Mat.t =
  let n = Qldae.dim q in
  let np = n * (n + 1) / 2 in
  let out = Mat.create n np in
  let o = Mat.data out in
  let by_row =
    List.stable_sort
      (fun (r, _, _) (r', _, _) -> compare r r')
      (Sptensor.entries q.Qldae.g2)
    |> runs (fun (row, _, _) -> row)
  in
  (* m = M + Mᵀ, its structural entries (p, r) listed as [cols.(p)] *)
  let m = Vec.create (n * n) and w = Vec.create (n * n) in
  let cols = Array.make n [] in
  let madds = ref 0 in
  List.iter
    (fun (row, es) ->
      List.iter
        (fun (_, (idx : int array), c) ->
          let i1 = idx.(0) and i2 = idx.(1) in
          m.((i1 * n) + i2) <- m.((i1 * n) + i2) +. c;
          m.((i2 * n) + i1) <- m.((i2 * n) + i1) +. c;
          cols.(i1) <- i2 :: cols.(i1);
          cols.(i2) <- i1 :: cols.(i2))
        es;
      let rows = List.filter (fun p -> cols.(p) <> []) (List.init n Fun.id) in
      (* w[p, :] = Σ_r m[p,r] U[r, :], r increasing *)
      List.iter
        (fun p ->
          List.iter
            (fun r ->
              madds := !madds + n;
              let a = m.((p * n) + r) in
              for l = 0 to n - 1 do
                w.((p * n) + l) <- w.((p * n) + l) +. (a *. u.((r * n) + l))
              done)
            (List.sort_uniq Int.compare cols.(p)))
        rows;
      (* out[row, (j <= l)] += U[p,j] w[p,l], halved at l = j *)
      List.iter
        (fun p ->
          madds := !madds + np;
          let col = ref (row * np) in
          for j = 0 to n - 1 do
            let a = u.((p * n) + j) in
            o.(!col) <- o.(!col) +. (0.5 *. (a *. w.((p * n) + j)));
            incr col;
            for l = j + 1 to n - 1 do
              o.(!col) <- o.(!col) +. (a *. w.((p * n) + l));
              incr col
            done
          done)
        rows;
      List.iter
        (fun p ->
          Array.fill m (p * n) n 0.0;
          Array.fill w (p * n) n 0.0;
          cols.(p) <- [])
        rows)
    by_row;
  Obs.Cost.charge Obs.Cost.Flops_tensor (2 * !madds)
    ~read:((n * n) + (3 * Sptensor.nnz q.Qldae.g2))
    ~written:(n * np);
  out

let default_s0 (q : Qldae.t) =
  (* Quadratized diode circuits have singular G1 (see DESIGN.md): their
     moments must expand at s0 > 0. A borderline-singular LU pivot is
     the cheap detector. *)
  if Qldae.has_d1 q then 1.0
  else begin
    match Lu.factor q.Qldae.g1 with
    | exception Lu.Singular _ -> 1.0
    | lu ->
      (* geometric mean of the pivots, through their logs: |det|^(1/n)
         under- or overflows for large n *)
      let d = exp (Lu.log_abs_det lu /. float_of_int (Qldae.dim q)) in
      if d < 1e-6 then 1.0 else 0.0
  end

let create ?recorder ?(policy = Robust.Policy.default ()) ?fault ?s0
    (q : Qldae.t) : t =
  let s0 = match s0 with Some s -> s | None -> default_s0 q in
  let n = Qldae.dim q in
  let ks =
    lazy
      (let ks = Ksolve.prepare q.Qldae.g1 in
       (* Conditioning of the resolvent and of the shifted Kronecker-sum
          operators the series run through — sampled off the Schur
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
           [ 1; 2; 3 ]
       end;
       ks)
  in
  let g2_sym =
    lazy (g2_form q ~u:(Mat.data (Ksolve.real_unitary (Lazy.force ks))))
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
  {
    q;
    s0;
    policy;
    recorder;
    fault = Option.map Robust.Faultify.make fault;
    ks;
    g2_sym;
    g3_lead;
    h2 = Hashtbl.create 4;
  }

(* A fresh H2 memo too: series computed under the old fault plan are
   never served under the new one. *)
let rearm t ~recorder ~fault =
  {
    t with
    recorder = Some recorder;
    fault = Option.map Robust.Faultify.make fault;
    h2 = Hashtbl.create 4;
  }

let s0 t = t.s0

let ksolve t = Lazy.force t.ks

(* Regularization strength for shifted Kronecker-sum retries, scaled to
   the expansion point so the pole displacement stays relative. *)
let reg_mu t = t.policy.Robust.Policy.tikhonov_mu *. (1.0 +. Float.abs t.s0)

(* where every retry below is recorded: the engine's shifted solves,
   under the operation name recovery reports carry *)
let retry_loc = Robust.Error.loc ~subsystem:"volterra" ~operation:"Assoc.nsolve"

(* A solve [solve ~mu v] (mu = 0: unregularized) whose near-singular
   shift retries once with the Tikhonov-regularized scalar inverse
   (minimum-norm at exact poles): the one retry of every Kronecker-sum
   solve of the series. *)
let tikhonov_retry t solve v =
  try solve ~mu:0.0 v
  with
  | Ksolve.Near_singular d when t.policy.Robust.Policy.tikhonov_mu > 0.0 ->
    Robust.Report.record_opt t.recorder ~action:"fallback:tikhonov"
      (Robust.Error.Singular_solve
         { loc = retry_loc; shift = t.s0; distance = d });
    solve ~mu:(reg_mu t) v

(* (s0 I - G1)^-1 v: the resolvent, the one solve of the engine in
   original coordinates, whose fault-injection hook corrupts the output
   on scheduled calls. Every moment of every order ends in an msolve,
   so this one hook covers H1/H2/H3. *)
let msolve t v =
  let ks = Lazy.force t.ks in
  let x =
    tikhonov_retry t (fun ~mu -> Ksolve.solve_shifted_real ~mu ks ~k:1 ~sigma:t.s0) v
  in
  match t.fault with None -> x | Some f -> Robust.Faultify.inject f x

(* (s0 - ⊕²T)^-1 on Schur-basis data: one triangular solve per step of
   the H2 series and of H3's merged ⊕² state *)
let tri2 t =
  let ks = Lazy.force t.ks in
  tikhonov_retry t (fun ~mu -> Ksolve.tri_solve_shifted_real ~mu ks ~k:2 ~sigma:t.s0)

(* G2 U^⊗2 w for a Schur-basis order-2 tensor w, symmetric or not.
   G2 is symmetrized (Qldae), so G2 (u_j ⊗ u_l) = G2 (u_l ⊗ u_j) and the
   sum over (j, l) folds onto the packed columns of g2_sym:

     G2 U^⊗2 w = Σ_{j <= l} g2_sym[:, (j,l)] s_jl,
         s_jj = w_jj,  s_jl = (w_jl + w_lj)/2,

   one contiguous n x n(n+1)/2 matvec where the two order-2 mode
   transforms back to original coordinates would take 2n³ strided
   multiply-adds. Charged at 2 flops per multiply-add, the packing's
   one per off-diagonal pair included. *)
let g2_read t (w : Vec.t) : Vec.t =
  let n = Qldae.dim t.q in
  let np = n * (n + 1) / 2 in
  let g = Mat.data (Lazy.force t.g2_sym) in
  Obs.Cost.charge Obs.Cost.Flops_tensor ((2 * n * np) + (n * (n - 1)))
    ~read:((n * np) + (n * n)) ~written:(np + n);
  let s = Vec.create np in
  let col = ref 0 in
  for j = 0 to n - 1 do
    s.(!col) <- w.((j * n) + j);
    incr col;
    for l = j + 1 to n - 1 do
      s.(!col) <- 0.5 *. (w.((j * n) + l) +. w.((l * n) + j));
      incr col
    done
  done;
  (* four rows per pass over s, each row summed in increasing column; a
     last group of fewer than four repeats its final row *)
  let out = Vec.create n in
  for grp = 0 to (n - 1) / 4 do
    let r0 = 4 * grp in
    let base k = min (r0 + k) (n - 1) * np in
    let b0 = base 0 and b1 = base 1 and b2 = base 2 and b3 = base 3 in
    let a0 = ref 0.0 and a1 = ref 0.0 and a2 = ref 0.0 and a3 = ref 0.0 in
    for c = 0 to np - 1 do
      let x = s.(c) in
      a0 := !a0 +. (g.(b0 + c) *. x);
      a1 := !a1 +. (g.(b1 + c) *. x);
      a2 := !a2 +. (g.(b2 + c) *. x);
      a3 := !a3 +. (g.(b3 + c) *. x)
    done;
    out.(r0) <- !a0;
    if r0 + 1 < n then out.(r0 + 1) <- !a1;
    if r0 + 2 < n then out.(r0 + 2) <- !a2;
    if r0 + 3 < n then out.(r0 + 3) <- !a3
  done;
  out

(* sym(x ⊗ y) = (x ⊗ y + y ⊗ x)/2, exactly x ⊗ x at x = y *)
let sym_pair (x : Vec.t) (y : Vec.t) =
  Vec.scale 0.5 (Vec.add (Kron.vec x y) (Kron.vec y x))

(* symmetrized Kronecker pair of input columns *)
let w_pair (q : Qldae.t) a b = sym_pair (Qldae.b_col q a) (Qldae.b_col q b)

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

(* ---- the resolvent chain ---- *)

(* The one moment recursion of every order (Theorems 1-2):

     m_0 = (s0 I - G1)^-1 inner_0,   m_j = (s0 I - G1)^-1 (m_{j-1} + inner_j),

   where an order supplies only its inner terms ([None]: no term at that
   step, as for H1 past m_0). The chain forces the next inner term only
   when its own next moment is forced, and memoizes, so a series read by
   several consumers (an H2 series inside the H3 D1 term) runs once. *)
let chain t (inner : Vec.t option Seq.t) : Vec.t Seq.t =
  let rec from prev inner () =
    match inner () with
    | Seq.Nil -> Seq.Nil
    | Seq.Cons (x, rest) ->
      let rhs =
        match (prev, x) with
        | Some p, Some x -> Vec.add p x
        | Some v, None | None, Some v -> v
        | None, None -> invalid_arg "Assoc.chain: no first inner term"
      in
      let m = msolve t rhs in
      Seq.Cons (m, from (Some m) rest)
  in
  Seq.memoize (from None inner)

(* the m-th element of an endless series *)
let nth s m =
  match Seq.drop m s () with
  | Seq.Cons (x, _) -> x
  | Seq.Nil -> invalid_arg "Assoc.nth: series ended"

(* ---- H2 ---- *)

(* Inner terms of H2^{ab}(s) about s0: G2 r_0 + d_ab, then G2 r_j with
   r_j = (s0 I - ⊕²G1)^-(j+1) w_ab. The series runs in the Schur basis,
   r_j = U^⊗2 r^_j: from w^_ab = sym(Uᵀb_a ⊗ Uᵀb_b) (O(n²), no mode
   transform), each step is one triangular solve r^_j = tri2 r^_{j-1},
   read back through G2 by g2_read. *)
let h2_inner t (a, b) : Vec.t option Seq.t =
 fun () ->
  let q = t.q in
  let schur i = Ksolve.adjoint_vec_real (Lazy.force t.ks) (Qldae.b_col q i) in
  let xa = schur a in
  let w = sym_pair xa (if a = b then xa else schur b) in
  let d = d_pair q a b in
  Seq.mapi
    (fun j r ->
      let g = g2_read t r in
      Some (if j = 0 then Vec.add g d else g))
    (Seq.drop 1 (Seq.iterate (tri2 t) w))
    ()

(* The engine's H2 series of the input pair [ab] (a <= b): looked up,
   or built and kept, when its head is forced, so the order-2 moments
   and every H3 D1 term that needs the pair step one series between
   them. The memo holds its n² state and n-vectors only. *)
let h2_series t ab : Vec.t Seq.t =
 fun () ->
  let s =
    match Hashtbl.find_opt t.h2 ab with
    | Some s -> s
    | None ->
      let s = chain t (h2_inner t ab) in
      Hashtbl.add t.h2 ab s;
      s
  in
  s ()

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

(* G3 U^⊗3 r for a Schur-basis order-3 tensor r, with U contracted
   only at G3's stored index triples rather than by three full mode
   transforms (6 n⁴ flops): per distinct leading index i1 one n³ pass
   forms y = Σ_j1 U[i1,j1] r[j1,:,:], per distinct (i1,i2) one n² pass
   forms z = Σ_j2 U[i2,j2] y[j2,:], and each entry finishes with
   Σ_j3 U[i3,j3] z[j3]. *)
let apply_g3_schur t (u : Mat.t) (r : Vec.t) : Vec.t =
  Obs.Span.with_ ~name:"assoc.g3" @@ fun () ->
  let n = Qldae.dim t.q in
  let n2 = n * n in
  let ud = Mat.data u in
  let plan = Lazy.force t.g3_lead in
  let n_lead = Array.length plan in
  let n_pair = Array.fold_left (fun s (_, g) -> s + Array.length g) 0 plan in
  let nnz = Sptensor.nnz t.q.Qldae.g3 in
  Obs.Cost.charge Obs.Cost.Flops_tensor
    ((2 * n_lead * n * n2) + (2 * n_pair * n2) + (nnz * ((2 * n) + 2)))
    ~read:((n_lead * (n + 1) * n2) + (n_pair * 2 * n2) + (nnz * 2 * n))
    ~written:((n_lead * n2) + (n_pair * n) + nnz);
  let out = Vec.create n in
  let y = Array.make n2 0.0 and z = Array.make n 0.0 in
  Array.iter
    (fun (i1, by_i2) ->
      Array.fill y 0 n2 0.0;
      for j1 = 0 to n - 1 do
        let c = ud.((i1 * n) + j1) in
        if Contract.nonzero c then begin
          let base = j1 * n2 in
          for x = 0 to n2 - 1 do
            y.(x) <- y.(x) +. (c *. r.(base + x))
          done
        end
      done;
      Array.iter
        (fun (i2, es) ->
          for j3 = 0 to n - 1 do
            let s = ref 0.0 in
            for j2 = 0 to n - 1 do
              s := !s +. (ud.((i2 * n) + j2) *. y.((j2 * n) + j3))
            done;
            z.(j3) <- !s
          done;
          Array.iter
            (fun (row, i3, coeff) ->
              let x = ref 0.0 in
              for j3 = 0 to n - 1 do
                x := !x +. (ud.((i3 * n) + j3) *. z.(j3))
              done;
              out.(row) <- out.(row) +. (coeff *. !x))
            es)
        by_i2)
    plan;
  out

(* sym³(x0, x1, x2) = (1/6) Σ_perms x_a ⊗ x_b ⊗ x_c, written in one pass
   on the entries i <= j <= l only (zeros elsewhere): all that
   Ksolve.tri_solve_sym3_real reads. Each entry adds the six products
   (x_a[i] x_b[j]) x_c[l] / 6 in a fixed order, 4 flops each. *)
let sym3_perms = [| 0; 1; 2; 0; 2; 1; 1; 0; 2; 1; 2; 0; 2; 0; 1; 2; 1; 0 |]

let sym3_entries n = n * (n + 1) * (n + 2) / 6

let sym3_upper n (x : Vec.t array) : Vec.t =
  Obs.Span.with_ ~name:"assoc.sym3_upper" @@ fun () ->
  Obs.Cost.charge Obs.Cost.Flops_tensor (24 * sym3_entries n)
    ~read:(3 * n) ~written:(sym3_entries n);
  let q3 = Vec.create (n * n * n) in
  let perms = sym3_perms in
  let sixth = 1.0 /. 6.0 in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      for l = j to n - 1 do
        let at = (((i * n) + j) * n) + l in
        for s = 0 to 5 do
          let xa = x.(perms.(3 * s))
          and xb = x.(perms.((3 * s) + 1))
          and xc = x.(perms.((3 * s) + 2)) in
          q3.(at) <- q3.(at) +. (sixth *. (xa.(i) *. xb.(j) *. xc.(l)))
        done
      done
    done
  done;
  q3

(* C^ = I ⊗ (Uᵀ G2 (U ⊗ U)) applied to a Schur-basis order-3 tensor
   symmetric in its trailing pair: slice-wise dense matvec against the
   packed columns of g2_sym (reading z[i, j <= l] only), followed by
   Uᵀ. Hand-rolled dense n x n(n+1)/2 matvec per slice, n slices; the
   trailing Uᵀ products charge themselves. *)
let apply_coupling t (u : Mat.t) (z : Vec.t) : Vec.t =
  Obs.Span.with_ ~name:"assoc.coupling" @@ fun () ->
  let n = Qldae.dim t.q in
  let m1 = Mat.data (Lazy.force t.g2_sym) in
  let n2 = n * n and np = n * (n + 1) / 2 in
  Obs.Cost.charge Obs.Cost.Flops_tensor (2 * n * n * np)
    ~read:(2 * n * np) ~written:(n * n);
  let out = Vec.create (n * n) in
  let tmp = Array.init 4 (fun _ -> Vec.create n) in
  (* four slices per pass over g2_sym (n x n(n+1)/2, the one large
     operand), each sum in the order of a slice-by-slice pass; a last
     group of fewer than four repeats its final slice *)
  for g = 0 to (n - 1) / 4 do
    let i0 = 4 * g in
    let base k = min (i0 + k) (n - 1) * n2 in
    let b0 = base 0 and b1 = base 1 and b2 = base 2 and b3 = base 3 in
    for r = 0 to n - 1 do
      let s0 = ref 0.0 and s1 = ref 0.0 and s2 = ref 0.0 and s3 = ref 0.0 in
      let col = ref (r * np) in
      for j = 0 to n - 1 do
        let jn = j * n in
        for l = j to n - 1 do
          let m = m1.(!col) and x = jn + l in
          s0 := !s0 +. (m *. z.(b0 + x));
          s1 := !s1 +. (m *. z.(b1 + x));
          s2 := !s2 +. (m *. z.(b2 + x));
          s3 := !s3 +. (m *. z.(b3 + x));
          incr col
        done
      done;
      tmp.(0).(r) <- !s0;
      tmp.(1).(r) <- !s1;
      tmp.(2).(r) <- !s2;
      tmp.(3).(r) <- !s3
    done;
    for k = 0 to min 3 (n - 1 - i0) do
      Array.blit (Mat.mul_vec_transpose u tmp.(k)) 0 out ((i0 + k) * n) n
    done
  done;
  out

(* Inner terms of H3^{abc}(s) about s0 for one input triple.

   All n³-sized series iterates are kept in the Schur basis of G1, so
   each order costs one triangular tensor back-substitution plus one
   application of the Schur-basis coupling — never a full set of
   unitary mode transforms. The identity making this work:

     (Uᵀ ⊗ Uᵀ ⊗ Uᵀ)(I ⊗ G2)(U ⊗ U ⊗ U) = I ⊗ (Uᵀ G2 (U ⊗ U)),

   so the block coupling C = I ⊗ G2 of the (sI - G1 ⊕ A~2)^-1 solve acts
   slice-wise through G2 (U ⊗ U); on the symmetric r_m below only its
   packed symmetrized columns g2_sym are needed.

   With the pairings folded (header), one ⊕³ series
   r_m = (s0 - ⊕³T)^-(m+1) q_abc, symmetric and solved by
   Ksolve.tri_solve_sym3_real, serves the coupling and the G3 term,
   and one ⊕² state carries the G2 term:

     w_0 = (s0 - ⊕²T)^-1 (p_abc + C r_0),   w_m = (s0 - ⊕²T)^-1 (w_{m-1} + C r_m),

   so the inner term of order m is
   2 G2 U^⊗2 w_m + (1/3) Σ_pairings D1_i H2^{jk}_m + G3 U^⊗3 r_m,
   the first read by g2_read, the second from the engine's H2 series
   of each pair (j,k). Every Schur-basis state is real: the real Schur
   factors (2x2 blocks included) at the real s0. *)
let h3_inner t (a, b, c) : Vec.t option Seq.t =
 fun () ->
  let q = t.q in
  let n = Qldae.dim q in
  let has_g2 = Qldae.has_g2 q and has_g3 = Qldae.has_g3 q in
  let ks = Lazy.force t.ks in
  let u = Ksolve.real_unitary ks in
  let tri2 = tri2 t in
  let tri3 = tikhonov_retry t (fun ~mu -> Ksolve.tri_solve_sym3_real ~mu ks ~sigma:t.s0) in
  let pairings = [ (a, (b, c)); (b, (a, c)); (c, (a, b)) ] in
  (* the states before step 0: q = sym³ of the triple's Schur input
     columns for the ⊕³ series, p for the merged ⊕² one *)
  let q3 =
    if has_g2 || has_g3 then
      Some
        (sym3_upper n
           (Array.map (fun i -> Ksolve.adjoint_vec_real ks (Qldae.b_col q i)) [| a; b; c |]))
    else None
  in
  let p =
    if has_g2 then begin
      let p = Vec.create (n * n) in
      if Qldae.has_d1 q then
        List.iter
          (fun (i, (j, l)) ->
            Vec.axpy ~alpha:(1.0 /. 3.0)
              (Kron.vec
                 (Ksolve.adjoint_vec_real ks (Qldae.b_col q i))
                 (Ksolve.adjoint_vec_real ks (d_pair q j l)))
              p)
          pairings;
      Some p
    end
    else None
  in
  (* r_m = tri3 r_{m-1}, w_m = tri2 (w_{m-1} + C r_m) *)
  let advance (r, w) =
    let r = Option.map tri3 r in
    ( r,
      match (r, w) with
      | Some r, Some w -> Some (tri2 (Vec.add w (apply_coupling t u r)))
      | _ -> None )
  in
  (* D1 part: the engine's H2 series of each pairing's pair *)
  let d1_terms =
    if Qldae.has_d1 q then
      List.map (fun (i, jl) -> (q.Qldae.d1.(i), h2_series t jl)) pairings
    else []
  in
  let inner m (r, w) =
    let acc = Vec.create n in
    Option.iter (fun w -> Vec.axpy ~alpha:2.0 (g2_read t w) acc) w;
    List.iter
      (fun (d1, h2) -> Vec.axpy ~alpha:(1.0 /. 3.0) (Mat.mul_vec d1 (nth h2 m)) acc)
      d1_terms;
    (match r with
    | Some r when has_g3 -> Vec.axpy ~alpha:1.0 (apply_g3_schur t u r) acc
    | _ -> ());
    Some acc
  in
  Seq.mapi inner (Seq.drop 1 (Seq.iterate advance (q3, p))) ()

(* ---- the series ---- *)

(* One thunk per input combination of the order, building that
   combination's series: construction computes nothing, so a caller can
   build, consume and drop one series at a time. *)
let combinations ?(triples_mode = `All) t ~order : (unit -> Vec.t Seq.t) list =
  let q = t.q in
  let m = Qldae.n_inputs q in
  let g2_or_d1 = Qldae.has_g2 q || Qldae.has_d1 q in
  match order with
  | 1 ->
    List.init m (fun a () ->
        chain t (fun () -> Seq.Cons (Some (Qldae.b_col q a), Seq.repeat None)))
  | 2 when g2_or_d1 -> List.map (fun ab () -> h2_series t ab) (pairs m)
  | 3 when g2_or_d1 || Qldae.has_g3 q ->
    List.map (fun abc () -> chain t (h3_inner t abc)) (triples triples_mode m)
  | 2 | 3 -> []
  | _ -> invalid_arg (Printf.sprintf "Assoc.series: order %d not in 1..3" order)

let series ?triples_mode t ~order : Vec.t Seq.t list =
  List.map (fun mk -> mk ()) (combinations ?triples_mode t ~order)

(* The first [k] moments of every series, one input combination after
   another, under the order's span (none for an order without
   coupling). Each series is built, taken and dropped before the next,
   so only one combination's solver state (n³ for H3) is live at a
   time; the engine's H2 memo holds n² states and n-vectors only. *)
let moments ?triples_mode t ~order ~k : Vec.t list =
  match combinations ?triples_mode t ~order with
  | [] -> []
  | cs ->
    let name = Printf.sprintf "h%d_moments" order in
    Obs.Span.with_ ~name:("assoc." ^ name) @@ fun () ->
    check_moments ("Assoc." ^ name)
      (List.concat_map (fun mk -> List.of_seq (Seq.take (max k 0) (mk ()))) cs)

let h1_moments t ~k = moments t ~order:1 ~k

let h2_moments t ~k = moments t ~order:2 ~k

let h3_moments ?triples_mode t ~k = moments ?triples_mode t ~order:3 ~k

(* ---- single-s evaluation of the associated transfer functions ---- *)

(* (sI - ⊕^k G1)^-1 v on the engine's Schur factorization; k = 1 is the
   resolvent itself. *)
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
  nsolve_c t ~k:1 s rhs

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
  nsolve_c t ~k:1 s acc
