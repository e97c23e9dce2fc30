(* Bartels-Stewart for the paper's eq. 18 Sylvester equation
   G1 Π + G2 = Π (⊕² G1), i.e. A X - X B = C with A = G1, B = ⊕² G1,
   C = -G2 — where B is n² x n² but its Schur form is inherited from
   G1's, so the solve costs O(n^4) and never builds B. *)

(* Pi from G1 Pi + G2 = Pi (⊕² G1) on the Schur factorization of G1
   that [ks] holds. *)
let solve_pi_schur ~(ks : Ksolve.t) ~(g2 : Mat.t) : Mat.t =
  let schur = Ksolve.schur ks in
  let u = Schur.unitary schur and t = Schur.triangular schur in
  let n = Cmat.rows u in
  Contract.require_dims "Sylvester.solve_pi_schur" ~expected:(n, n * n)
    ~actual:(Mat.dims g2);
  (* Solvability needs lambda_i != lambda_j + lambda_k for all triples
     (paper §2.3). Quadratized diode circuits violate it structurally
     (their augmented G1 has zero eigenvalues, and 0 = 0 + 0). *)
  let eigs = Schur.eigenvalues schur in
  let scale =
    Array.fold_left (fun acc z -> Float.max acc (Complex.norm z)) 1e-30 eigs
  in
  Array.iteri
    (fun i li ->
      Array.iteri
        (fun j lj ->
          Array.iteri
            (fun k lk ->
              ignore (i, j, k);
              let gap = Complex.norm (Complex.sub li (Complex.add lj lk)) in
              if gap < 1e-10 *. scale then raise (Ksolve.Near_singular gap))
            eigs)
        eigs)
    eigs;
  let m = n * n in
  let ut = Cmat.transpose u in
  let uconj = Cmat.init n n (fun i j -> Complex.conj (Cmat.get u i j)) in
  (* C = -G2;  C~ = U^H C (U ⊗ U).
     Row r of (C (U⊗U)) is (U⊗U)ᵀ c_r = (Uᵀ⊗Uᵀ) c_r: two mode
     multiplies by Uᵀ. *)
  let chat_rows =
    Array.init n (fun r ->
        let crow = Cvec.of_real (Vec.init m (fun j -> -.Mat.get g2 r j)) in
        let w = Ksolve.mode_mul ~n ~k:2 ~m:0 ut crow in
        Ksolve.mode_mul ~n ~k:2 ~m:1 ut w)
  in
  (* then left-multiply by U^H: chat[i, j] = sum_r conj(U[r,i]) rows[r][j] *)
  let chat = Cmat.create n m in
  for r = 0 to n - 1 do
    for i = 0 to n - 1 do
      let urc = Complex.conj (Cmat.get u r i) in
      if Contract.nonzero urc.re || Contract.nonzero urc.im then
        for j = 0 to m - 1 do
          Cmat.add_to chat i j
            (Complex.mul urc (Cvec.get chat_rows.(r) j))
        done
    done
  done;
  (* T Y - Y (⊕²T) = C~: flat column index j = (j1, j2) ascending is a
     valid triangular order. Off-diagonal column entries of ⊕²T at
     (i1, j2) for i1 < j1 with coefficient T[i1,j1], and (j1, i2) for
     i2 < j2 with coefficient T[i2,j2]. *)
  let y = Cmat.create n m in
  let ycol = Array.init m (fun _ -> None) in
  for j = 0 to m - 1 do
    let j1 = j / n and j2 = j mod n in
    let rhs = Cmat.col chat j in
    for i1 = 0 to j1 - 1 do
      let coef = Cmat.get t i1 j1 in
      if Contract.nonzero coef.re || Contract.nonzero coef.im then
        match ycol.((i1 * n) + j2) with
        | Some c -> Cvec.axpy ~alpha:coef c rhs
        | None -> ()
    done;
    for i2 = 0 to j2 - 1 do
      let coef = Cmat.get t i2 j2 in
      if Contract.nonzero coef.re || Contract.nonzero coef.im then
        match ycol.((j1 * n) + i2) with
        | Some c -> Cvec.axpy ~alpha:coef c rhs
        | None -> ()
    done;
    let mu = Complex.add (Cmat.get t j1 j1) (Cmat.get t j2 j2) in
    (* (T - mu I) y = rhs as (mu I - T) y = -rhs: negation is exact, so
       y has the bits of the direct back-substitution *)
    let col =
      Ksolve.tri_solve_shifted ks ~k:1 ~sigma:mu
        (Cvec.make
           ~re:(Array.map Float.neg rhs.Cvec.re)
           ~im:(Array.map Float.neg rhs.Cvec.im))
    in
    ycol.(j) <- Some col;
    Cmat.set_col y j col
  done;
  (* Pi = U Y (U ⊗ U)^H: row r of Y (U⊗U)^H is conj(U⊗U) y_r. *)
  let pirows =
    Array.init n (fun r ->
        let yrow = Cvec.init m (fun j -> Cmat.get y r j) in
        let w = Ksolve.mode_mul ~n ~k:2 ~m:0 uconj yrow in
        Ksolve.mode_mul ~n ~k:2 ~m:1 uconj w)
  in
  let pi = Cmat.create n m in
  for r = 0 to n - 1 do
    for i = 0 to n - 1 do
      let uir = Cmat.get u i r in
      if Contract.nonzero uir.re || Contract.nonzero uir.im then
        for j = 0 to m - 1 do
          Cmat.add_to pi i j (Complex.mul uir (Cvec.get pirows.(r) j))
        done
    done
  done;
  let imag = Mat.norm_fro (Cmat.imag_part pi) in
  if imag > 1e-5 *. (1.0 +. Cmat.norm_fro pi) then
    Robust.Error.raise_error
      (Robust.Error.Contract_violation
         {
           loc =
             Robust.Error.loc ~subsystem:"la"
               ~operation:"Sylvester.solve_pi_schur";
           detail = "non-negligible imaginary residue";
         });
  Cmat.real_part pi
