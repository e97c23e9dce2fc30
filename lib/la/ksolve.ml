(* Structured solves with shifted Kronecker sums of a single matrix:

     (sigma I - ⊕^k G) x = v,   v of length n^k,  k = 1, 2, 3, ...

   never materializing the n^k x n^k operator. One complex Schur
   factorization G = U T U^H gives

     sigma I - ⊕^k G = (U ⊗..⊗ U)(sigma I - ⊕^k T)(U ⊗..⊗ U)^H

   and the triangular middle solve is a recursive block
   back-substitution over order-k tensors (cost O(k n^{k+1}), memory
   O(n^k)). This is the §2.3 trick of the paper, in complex form.
   Permutation-symmetric order-3 data (the third-order associated
   series) has its own back-substitution over the i <= j <= l entries
   only, tri_solve_sym3. *)

type t = { n : int; schur : Schur.t }

let prepare (g : Mat.t) : t =
  Contract.require_square "Ksolve.prepare" (Mat.dims g);
  Obs.Span.with_ ~name:"ksolve.prepare" (fun () ->
      (* the dense Schur factorization charges itself *)
      let n = Mat.rows g in
      { n; schur = Schur.decompose g })

let expected_len n k =
  let s = ref 1 in
  for _ = 1 to k do
    s := !s * n
  done;
  !s

let schur t = t.schur

(* Every distinct eigenvalue sum [lam_i1 + ... + lam_ik], the diagonal
   of (sigma I - ⊕^k T) up to the shift: enumerated over sorted index
   tuples (the sums are symmetric) for k = 2 at n <= 400 and for k = 3
   while the n(n+1)(n+2)/6 triples stay <= 2e6; beyond that, only the
   k-fold multiples [k lam_i] are sampled — adequate as a diagnostic. *)
let iter_pole_sums t ~k f =
  let eigs = Schur.eigenvalues t.schur in
  let n = Array.length eigs in
  match k with
  | 1 -> Array.iter f eigs
  | 2 when n <= 400 ->
    for i = 0 to n - 1 do
      for j = i to n - 1 do
        f (Complex.add eigs.(i) eigs.(j))
      done
    done
  | 3 when n * (n + 1) * (n + 2) / 6 <= 2_000_000 ->
    for i = 0 to n - 1 do
      for j = i to n - 1 do
        let s = Complex.add eigs.(i) eigs.(j) in
        for l = j to n - 1 do
          f (Complex.add s eigs.(l))
        done
      done
    done
  | _ ->
    Array.iter
      (fun a -> f (Complex.mul { re = float_of_int k; im = 0.0 } a))
      eigs

(* Smallest |sigma - (lam_i1 + ... + lam_ik)| over the sums of
   {!iter_pole_sums} — the distance from singularity of the shifted
   operator. *)
let min_pole_distance t ~k ~(sigma : Complex.t) =
  let best = ref infinity in
  iter_pole_sums t ~k (fun z ->
      let d = Complex.norm (Complex.sub sigma z) in
      if d < !best then best := d);
  !best

(* Cheap conditioning estimate of the shifted operator: in the Schur
   basis [(sigma I - ⊕^k T)] is triangular with diagonal
   [sigma - (lam_i1 + ... + lam_ik)], so the ratio of the farthest to
   the nearest pole distance estimates its conditioning (the unitary
   mode transforms are isometries). Same sums as {!min_pole_distance};
   a diagnostic, not a bound. *)
let cond_estimate t ~k ~(sigma : Complex.t) =
  let dmin = ref infinity and dmax = ref 0.0 in
  iter_pole_sums t ~k (fun z ->
      let d = Complex.norm (Complex.sub sigma z) in
      if d < !dmin then dmin := d;
      if d > !dmax then dmax := d);
  if !dmin <= 0.0 then infinity else !dmax /. !dmin

(* ---- tensor primitives on split-complex flat arrays ---- *)

(* Multiply the order-k tensor [x] (dims all [n], row-major, mode 0
   slowest) along mode [m] by the n x n complex matrix [mat] (or its
   adjoint). *)
let mode_mul ~n ~k ~m ?(adjoint = false) (mat : Cmat.t) (x : Cvec.t) : Cvec.t =
  Contract.require_dims "Ksolve.mode_mul" ~expected:(n, n)
    ~actual:(Cmat.dims mat);
  let total = Cvec.dim x in
  Contract.require "Ksolve.mode_mul"
    (m >= 0 && m < k && total = expected_len n k)
    "kron incompatibility"
    (Printf.sprintf "mode %d of order %d, operand length %d, n %d" m k total n);
  let stride_r =
    let s = ref 1 in
    for _ = m + 1 to k - 1 do
      s := !s * n
    done;
    !s
  in
  let block = n * stride_r in
  let nblocks = total / block in
  Obs.Cost.charge Obs.Cost.Flops_tensor (8 * n * total)
    ~read:((2 * n * n) + (2 * total))
    ~written:(2 * total);
  let out = Cvec.create total in
  let mre = mat.Cmat.re and mim = mat.Cmat.im in
  let xre = x.Cvec.re and xim = x.Cvec.im in
  let ore_ = out.Cvec.re and oim = out.Cvec.im in
  for l = 0 to nblocks - 1 do
    let base = l * block in
    for i = 0 to n - 1 do
      let obase = base + (i * stride_r) in
      for j = 0 to n - 1 do
        (* coefficient M[i,j] (or conj(M[j,i]) for the adjoint) *)
        let cr, ci =
          if adjoint then (mre.((j * n) + i), -.mim.((j * n) + i))
          else (mre.((i * n) + j), mim.((i * n) + j))
        in
        if Contract.nonzero cr || Contract.nonzero ci then begin
          let xbase = base + (j * stride_r) in
          for r = 0 to stride_r - 1 do
            let xr = xre.(xbase + r) and xi = xim.(xbase + r) in
            ore_.(obase + r) <- ore_.(obase + r) +. ((cr *. xr) -. (ci *. xi));
            oim.(obase + r) <- oim.(obase + r) +. ((cr *. xi) +. (ci *. xr))
          done
        end
      done
    done
  done;
  out

(* Real mode multiply used by the residual checker. *)
let mode_mul_real ~n ~k ~m (mat : Mat.t) (x : Vec.t) : Vec.t =
  Contract.require_dims "Ksolve.mode_mul_real" ~expected:(n, n)
    ~actual:(Mat.dims mat);
  let total = Array.length x in
  Contract.require "Ksolve.mode_mul_real"
    (m >= 0 && m < k && total = expected_len n k)
    "kron incompatibility"
    (Printf.sprintf "mode %d of order %d, operand length %d, n %d" m k total n);
  let stride_r =
    let s = ref 1 in
    for _ = m + 1 to k - 1 do
      s := !s * n
    done;
    !s
  in
  let block = n * stride_r in
  let nblocks = total / block in
  Obs.Cost.charge Obs.Cost.Flops_tensor (2 * n * total)
    ~read:((n * n) + total) ~written:total;
  let out = Vec.create total in
  for l = 0 to nblocks - 1 do
    let base = l * block in
    for i = 0 to n - 1 do
      let obase = base + (i * stride_r) in
      for j = 0 to n - 1 do
        let c = Mat.get mat i j in
        if Contract.nonzero c then begin
          let xbase = base + (j * stride_r) in
          for r = 0 to stride_r - 1 do
            out.(obase + r) <- out.(obase + r) +. (c *. x.(xbase + r))
          done
        end
      done
    done
  done;
  out

exception Near_singular of float

(* Squared pole threshold of an unregularized solve: a diagonal entry
   sigma - (t_i1 + ... + t_ik) within n·eps·(|sigma| + k·max|t_ii|) of
   zero is a pole to working precision. A backward-stable Schur places
   eigenvalues only to about eps·‖G‖, so an exact pole (a singular G at
   sigma = 0, say) shows up as a rounding-sized nonzero, not as 0. A
   regularized solve (mu > 0) is finite at a pole and only guards
   underflow. *)
let pole_tol2 ~mu (tmat : Cmat.t) ~k ~(sigma : Complex.t) =
  if mu > 0.0 then 1e-300
  else begin
    let n = Cmat.rows tmat in
    let rho = ref 0.0 in
    for i = 0 to n - 1 do
      rho :=
        Float.max !rho
          (Float.hypot tmat.Cmat.re.((i * n) + i) tmat.Cmat.im.((i * n) + i))
    done;
    let tol =
      float_of_int n *. epsilon_float
      *. (Complex.norm sigma +. (float_of_int k *. !rho))
    in
    Float.max 1e-300 (tol *. tol)
  end

(* Recursive triangular solve: (sigma I - ⊕^k T) y = w with T upper
   triangular. Operates in place on a copy of [w]. With [mu] > 0 each
   scalar division uses the Tikhonov-regularized inverse
   conj(d) / (|d|^2 + mu^2) — the diagonal regularization behind the
   one retry of a near-singular shifted solve, exact minimum-norm at
   d = 0. *)
let tri_solve ?(mu = 0.0) (tmat : Cmat.t) ~k ~(sigma : Complex.t) (w : Cvec.t)
    : Cvec.t =
  let mu2 = mu *. mu in
  let tol2 = pole_tol2 ~mu tmat ~k ~sigma in
  let n = Cmat.rows tmat in
  let tre = tmat.Cmat.re and tim = tmat.Cmat.im in
  let y = Cvec.copy w in
  let yre = y.Cvec.re and yim = y.Cvec.im in
  (* solve the block starting at [off] of order [k] with shift
     [sre + i*sim], in place *)
  let rec go ~k ~off ~sre ~sim =
    (* one deadline poll per tensor block (tile): O(n^k) arithmetic per
       poll amortizes the clock read into noise *)
    Robust.Budget.check "la.Ksolve.tri_solve";
    (* Nominal per-node charge, on the caller and outside the Par
       tiles below, so counts are identical at any domain count. *)
    if k = 1 then begin
      Obs.Cost.charge Obs.Cost.Flops_trisolve
        ((4 * n * (n - 1)) + (11 * n))
        ~read:((n * n) + (2 * n))
        ~written:(2 * n);
      for i = n - 1 downto 0 do
        let accr = ref yre.(off + i) and acci = ref yim.(off + i) in
        for j = i + 1 to n - 1 do
          let cr = tre.((i * n) + j) and ci = tim.((i * n) + j) in
          if Contract.nonzero cr || Contract.nonzero ci then begin
            accr := !accr +. ((cr *. yre.(off + j)) -. (ci *. yim.(off + j)));
            acci := !acci +. ((cr *. yim.(off + j)) +. (ci *. yre.(off + j)))
          end
        done;
        let dr = sre -. tre.((i * n) + i) and di = sim -. tim.((i * n) + i) in
        let dm = (dr *. dr) +. (di *. di) +. mu2 in
        if dm < tol2 then raise (Near_singular (sqrt dm));
        yre.(off + i) <- ((!accr *. dr) +. (!acci *. di)) /. dm;
        yim.(off + i) <- ((!acci *. dr) -. (!accr *. di)) /. dm
      done
    end
    else begin
      let block =
        let s = ref 1 in
        for _ = 2 to k do
          s := !s * n
        done;
        !s
      in
      Obs.Cost.charge Obs.Cost.Flops_trisolve
        (4 * block * n * (n - 1))
        ~read:((n * n) + (2 * n * block))
        ~written:(2 * n * block);
      for i = n - 1 downto 0 do
        let bi = off + (i * block) in
        (* rhs += sum_{j>i} T[i,j] * y_j-block.  Element [bi + r] reads
           only the same [r] of later blocks, so the r-range splits into
           contiguous Par tiles — each lane runs the j-loop serially
           over its own subrange, keeping every element's accumulation
           order (increasing j) identical to the serial solve, so the
           parallel result is bit-identical. *)
        Par.tiles ~lo:0 ~hi:block (fun ~lo ~hi ->
            for j = i + 1 to n - 1 do
              let cr = tre.((i * n) + j) and ci = tim.((i * n) + j) in
              if Contract.nonzero cr || Contract.nonzero ci then begin
                let bj = off + (j * block) in
                for r = lo to hi - 1 do
                  yre.(bi + r) <-
                    yre.(bi + r)
                    +. ((cr *. yre.(bj + r)) -. (ci *. yim.(bj + r)));
                  yim.(bi + r) <-
                    yim.(bi + r)
                    +. ((cr *. yim.(bj + r)) +. (ci *. yre.(bj + r)))
                done
              end
            done);
        go ~k:(k - 1) ~off:bi ~sre:(sre -. tre.((i * n) + i))
          ~sim:(sim -. tim.((i * n) + i))
      done
    end
  in
  go ~k ~off:0 ~sre:sigma.re ~sim:sigma.im;
  y

(* x -> (U^H)^{⊗k} x *)
let to_schur t ~k (v : Cvec.t) : Cvec.t =
  let u = Schur.unitary t.schur in
  let w = ref v in
  for m = 0 to k - 1 do
    w := mode_mul ~n:t.n ~k ~m ~adjoint:true u !w
  done;
  !w

(* x -> U^{⊗k} x *)
let from_schur t ~k (v : Cvec.t) : Cvec.t =
  let u = Schur.unitary t.schur in
  let w = ref v in
  for m = 0 to k - 1 do
    w := mode_mul ~n:t.n ~k ~m u !w
  done;
  !w

(* (sigma I - ⊕^k G) x = v through the Schur basis:
   x = U^⊗k (sigma I - ⊕^k T)^-1 (U^H)^⊗k v.  [mu] > 0 uses the
   Tikhonov-regularized scalar inverse of tri_solve. *)
let solve_shifted ?mu t ~k ~(sigma : Complex.t) (v : Cvec.t) : Cvec.t =
  Contract.require "Ksolve.solve_shifted" (k >= 1) "kron incompatibility"
    (Printf.sprintf "order k = %d must be >= 1" k);
  Contract.require_len "Ksolve.solve_shifted" ~expected:(expected_len t.n k)
    ~actual:(Cvec.dim v);
  Obs.Metrics.incr Obs.Metrics.Shifted_solve;
  Obs.Span.with_ ~name:"ksolve.solve_shifted" (fun () ->
      from_schur t ~k
        (tri_solve ?mu (Schur.triangular t.schur) ~k ~sigma (to_schur t ~k v)))

(* Real data through a complex factorization returns a real answer up
   to rounding: the plain solve tolerates a modest residue. Conjugate
   symmetry survives the diagonal regularization, but near an exact
   pole the rounding residue can be larger, so a regularized solve
   takes the real part without the residue guard. *)
let solve_shifted_real ?mu t ~k ~sigma (v : Vec.t) : Vec.t =
  let x =
    solve_shifted ?mu t ~k ~sigma:{ Complex.re = sigma; im = 0.0 }
      (Cvec.of_real v)
  in
  match mu with
  | Some mu when mu > 0.0 -> Cvec.real_part x
  | _ -> Cvec.to_real ~tol:1e-5 x

(* ---- Schur-coordinate interface ----

   Series recursions (repeated solves at one shift) pay the unitary
   mode transforms (to_schur, from_schur) only at entry and exit when
   the iterates are kept in the Schur basis: each step is then a single
   triangular tensor back-substitution. *)

(* U^H b for a real vector: the Schur-basis image of a rank-1 factor. *)
let adjoint_vec t (b : Vec.t) : Cvec.t =
  Contract.require_len "Ksolve.adjoint_vec" ~expected:t.n
    ~actual:(Array.length b);
  Cmat.mul_vec_adjoint (Schur.unitary t.schur) (Cvec.of_real b)

(* The triangular middle solve only: (sigma I - ⊕^k T) y = w for
   Schur-basis data. *)
let tri_solve_shifted ?mu t ~k ~(sigma : Complex.t) (w : Cvec.t) : Cvec.t =
  Contract.require_len "Ksolve.tri_solve_shifted"
    ~expected:(expected_len t.n k) ~actual:(Cvec.dim w);
  Obs.Metrics.incr Obs.Metrics.Shifted_solve;
  tri_solve ?mu (Schur.triangular t.schur) ~k ~sigma w

(* Triangular ⊕³ solve for permutation-symmetric data:
   (sigma I - ⊕³T) y = w with w, hence y, invariant under every
   permutation of (i, j, l) (⊕³T commutes with them). Only the
   n(n+1)(n+2)/6 entries with i <= j <= l are solved, as

     y_ijl = (w_ijl + Σ_{p>i} T_ip y_pjl + Σ_{q>j} T_jq y_iql
                    + Σ_{r>l} T_lr y_ijr) / (sigma - t_ii - t_jj - t_ll),

   levels i descending, then j and l descending from n-1; each solved
   value goes to all six permutations, so the result is the full n³
   layout. Everything an entry reads is an earlier entry of that order
   (or its permutation). Entries off i <= j <= l of [w] are never
   read. Schur triangles are dense, so unlike {!tri_solve} the inner
   loops carry no zero-coefficient test. *)
let tri_solve_sym3 ?(mu = 0.0) t ~(sigma : Complex.t) (w : Cvec.t) : Cvec.t =
  let n = t.n in
  Contract.require_len "Ksolve.tri_solve_sym3" ~expected:(expected_len n 3)
    ~actual:(Cvec.dim w);
  Obs.Metrics.incr Obs.Metrics.Shifted_solve;
  let n2 = n * n in
  (* Nominal charge, on the caller and outside the Par tiles: 8 flops
     per complex multiply-add, (n-1)n(n+1)(n+2)/4 of them over the
     unique entries, and 11 per scalar division. *)
  let madds = (n - 1) * n * (n + 1) * (n + 2) / 4 in
  Obs.Cost.charge Obs.Cost.Flops_trisolve
    ((8 * madds) + (11 * (n * (n + 1) * (n + 2) / 6)))
    ~read:((n * n) + (2 * madds))
    ~written:(2 * n * n2);
  let mu2 = mu *. mu in
  let tmat = Schur.triangular t.schur in
  let tol2 = pole_tol2 ~mu tmat ~k:3 ~sigma in
  let tre = tmat.Cmat.re and tim = tmat.Cmat.im in
  let y = Cvec.copy w in
  let yre = y.Cvec.re and yim = y.Cvec.im in
  for i = n - 1 downto 0 do
    Robust.Budget.check "la.Ksolve.tri_solve_sym3";
    (* Slot-0 sums of the pairs i < j <= l (row-major), which read only
       finished levels p > i: the pair range splits into Par tiles.
       Each tile runs p outermost over its contiguous l-runs, keeping every
       entry's accumulation order (increasing p) that of the serial
       solve, so the result is bit-identical at any domain count. The
       row j = i reads its own level and is summed in the sweep. *)
    let m = n - 1 - i in
    Par.tiles ~lo:0 ~hi:(m * (m + 1) / 2) (fun ~lo ~hi ->
        for p = i + 1 to n - 1 do
          let cr = tre.((i * n) + p) and ci = tim.((i * n) + p) in
          (* row j holds pairs [off, off + n - j) of the level *)
          let off = ref 0 in
          for j = i + 1 to n - 1 do
            let a = max lo !off and b = min hi (!off + n - j) in
            (* pair index x sits at (i, j, j + x - off) *)
            let bi = (i * n2) + (j * n) + j - !off
            and bp = (p * n2) + (j * n) + j - !off in
            for x = a to b - 1 do
              yre.(bi + x) <-
                yre.(bi + x) +. ((cr *. yre.(bp + x)) -. (ci *. yim.(bp + x)));
              yim.(bi + x) <-
                yim.(bi + x) +. ((cr *. yim.(bp + x)) +. (ci *. yre.(bp + x)))
            done;
            off := !off + n - j
          done
        done);
    let si_re = sigma.re -. tre.((i * n) + i)
    and si_im = sigma.im -. tim.((i * n) + i) in
    for j = n - 1 downto i do
      let sj_re = si_re -. tre.((j * n) + j)
      and sj_im = si_im -. tim.((j * n) + j) in
      for l = n - 1 downto j do
        let at = (i * n2) + (j * n) + l in
        let accr = ref yre.(at) and acci = ref yim.(at) in
        (* slot s sums T[row, c] y[base + c stride] over c > row: slot 0
           (p, row i) only on the row j = i, then slots 1 (q) and 2 (r) *)
        for s = (if j = i then 0 else 1) to 2 do
          let row = if s = 0 then i else if s = 1 then j else l in
          let base =
            if s = 0 then (j * n) + l
            else if s = 1 then (i * n2) + l
            else (i * n2) + (j * n)
          in
          let stride = if s = 0 then n2 else if s = 1 then n else 1 in
          for c = row + 1 to n - 1 do
            let cr = tre.((row * n) + c) and ci = tim.((row * n) + c) in
            let src = base + (c * stride) in
            accr := !accr +. ((cr *. yre.(src)) -. (ci *. yim.(src)));
            acci := !acci +. ((cr *. yim.(src)) +. (ci *. yre.(src)))
          done
        done;
        let dr = sj_re -. tre.((l * n) + l)
        and di = sj_im -. tim.((l * n) + l) in
        let dm = (dr *. dr) +. (di *. di) +. mu2 in
        if dm < tol2 then raise (Near_singular (sqrt dm));
        let xr = ((!accr *. dr) +. (!acci *. di)) /. dm
        and xi = ((!acci *. dr) -. (!accr *. di)) /. dm in
        (* the six permutations of (i, j, l) *)
        let ii = i * n2 and jj = j * n2 and ll = l * n2 in
        let p0 = ii + (j * n) + l and p1 = ii + (l * n) + j in
        let p2 = jj + (i * n) + l and p3 = jj + (l * n) + i in
        let p4 = ll + (i * n) + j and p5 = ll + (j * n) + i in
        yre.(p0) <- xr; yim.(p0) <- xi;
        yre.(p1) <- xr; yim.(p1) <- xi;
        yre.(p2) <- xr; yim.(p2) <- xi;
        yre.(p3) <- xr; yim.(p3) <- xi;
        yre.(p4) <- xr; yim.(p4) <- xi;
        yre.(p5) <- xr; yim.(p5) <- xi
      done
    done
  done;
  y

(* The unitary factor, for callers assembling custom Schur-basis
   operators (e.g. U^H G2 (U ⊗ U)). *)
let unitary t : Cmat.t = Schur.unitary t.schur

(* Apply (sigma I - ⊕^k G) to a real flat vector — residual checking. *)
let apply_shifted ~(g : Mat.t) ~k ~sigma (x : Vec.t) : Vec.t =
  let n = Mat.rows g in
  Obs.Cost.charge Obs.Cost.Flops_axpy
    (((2 * k) + 1) * Array.length x)
    ~read:(((2 * k) + 1) * Array.length x)
    ~written:((k + 1) * Array.length x);
  let out = Vec.scale sigma x in
  for m = 0 to k - 1 do
    let gx = mode_mul_real ~n ~k ~m g x in
    Vec.axpy ~alpha:(-1.0) gx out
  done;
  out
