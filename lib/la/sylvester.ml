(* Bartels-Stewart for the paper's eq. 18 Sylvester equation
   G1 Π + G2 = Π (⊕² G1), i.e. A X - X B = C with A = G1, B = ⊕² G1,
   C = -G2 — where B is n² x n² but its Schur form is inherited from
   G1's, so the solve costs O(n^4) and never builds B. *)

(* Pi from G1 Pi + G2 = Pi (⊕² G1) on the real Schur factorization
   G1 = U T Uᵀ that [ks] holds. *)
let solve_pi_schur ~(ks : Ksolve.t) ~(g2 : Mat.t) : Mat.t =
  let schur = Ksolve.schur ks in
  let u, t = Schur.real_factors schur in
  let n = Mat.rows u in
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
  (* C~ = -Uᵀ G2 (U ⊗ U), held column-major in [y] (column j at j·n):
     row r of G2 (U ⊗ U) is (Uᵀ ⊗ Uᵀ) g_r, two mode multiplies by Uᵀ. *)
  let y = Vec.create (m * n) in
  for r = 0 to n - 1 do
    let row =
      Ksolve.mode_mul_real ~n ~k:2 ~m:1 ~transpose:true u
        (Ksolve.mode_mul_real ~n ~k:2 ~m:0 ~transpose:true u (Mat.row g2 r))
    in
    for i = 0 to n - 1 do
      let uri = Mat.get u r i in
      if Contract.nonzero uri then
        for j = 0 to m - 1 do
          y.((j * n) + i) <- y.((j * n) + i) -. (uri *. row.(j))
        done
    done
  done;
  (* T Y - Y (⊕²T) = C~ over column tuples J = B1 x B2 of diagonal
     blocks of T, in ascending block order: (⊕²T)[i, j] couples column j
     to the earlier columns (i1 < B1, j2) by T[i1, j1] and (j1, i2 < B2)
     by T[i2, j2], and within J to M_J = T_B1 ⊕ T_B2, so Y_J solves the
     k = 1 tuple system (M_Jᵀ ⊗ I - I ⊗ T) vec Y_J = -R_J with R_J = C~_J
     plus those earlier columns. Each solution overwrites its C~ column,
     which nothing reads again. *)
  let blocks = Schur.blocks schur in
  Array.iter
    (fun (b1, e1) ->
      Array.iter
        (fun (b2, e2) ->
          let s2 = e2 - b2 in
          let s = (e1 - b1) * s2 in
          let col u = (((b1 + (u / s2)) * n) + b2 + (u mod s2)) * n in
          let w = Vec.create (s * n) in
          for u = 0 to s - 1 do
            let j1 = b1 + (u / s2) and j2 = b2 + (u mod s2) in
            Array.blit (Vec.scale (-1.0) (Array.sub y (col u) n)) 0 w (u * n) n;
            let sub coef src =
              if Contract.nonzero coef then
                for i = 0 to n - 1 do
                  w.((u * n) + i) <- w.((u * n) + i) -. (coef *. y.(src + i))
                done
            in
            for i1 = 0 to b1 - 1 do
              sub (Mat.get t i1 j1) (((i1 * n) + j2) * n)
            done;
            for i2 = 0 to b2 - 1 do
              sub (Mat.get t i2 j2) (((j1 * n) + i2) * n)
            done
          done;
          (* M_Jᵀ[u, v] = (T_B1 ⊕ T_B2)[v, u] *)
          let sm =
            Mat.init s s (fun u v ->
                let p1 = b1 + (u / s2) and p2 = b2 + (u mod s2) in
                let q1 = b1 + (v / s2) and q2 = b2 + (v mod s2) in
                (if p2 = q2 then Mat.get t q1 p1 else 0.0)
                +. if p1 = q1 then Mat.get t q2 p2 else 0.0)
          in
          let eig =
            Array.init s (fun u -> Complex.add eigs.(b1 + (u / s2)) eigs.(b2 + (u mod s2)))
          in
          let yj = Ksolve.tri_solve_tuple ks ~sm ~eig w in
          for u = 0 to s - 1 do
            Array.blit yj (u * n) y (col u) n
          done)
        blocks)
    blocks;
  (* Pi = U Y (U ⊗ U)ᵀ: row r of Y (U ⊗ U)ᵀ is (U ⊗ U) y_r. *)
  let pi = Mat.create n m in
  for r = 0 to n - 1 do
    let row =
      Ksolve.mode_mul_real ~n ~k:2 ~m:1 u
        (Ksolve.mode_mul_real ~n ~k:2 ~m:0 u (Vec.init m (fun j -> y.((j * n) + r))))
    in
    for i = 0 to n - 1 do
      let uir = Mat.get u i r in
      if Contract.nonzero uir then
        for j = 0 to m - 1 do
          Mat.set pi i j (Mat.get pi i j +. (uir *. row.(j)))
        done
    done
  done;
  pi
