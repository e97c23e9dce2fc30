(* Structured solves with shifted Kronecker sums of a single matrix:

     (sigma I - ⊕^k G) x = v,   v of length n^k,  k = 1, 2, 3, ...

   never materializing the n^k x n^k operator. One Schur factorization
   G = U T U^H gives

     sigma I - ⊕^k G = (U ⊗..⊗ U)(sigma I - ⊕^k T)(U ⊗..⊗ U)^H

   and the triangular middle solve is a recursive block
   back-substitution over order-k tensors (cost O(k n^{k+1}), memory
   O(n^k)). This is the §2.3 trick of the paper. A real shift runs on
   the real Schur form (Schur.real_factors) in real arithmetic: a
   quarter of the flops and half the words of the split-complex
   kernels, which serve complex shifts on the complex triangular form.
   When G's spectrum is real the real T is triangular and the real
   kernels mirror the complex ones; a complex pair leaves a 2x2 block,
   whose tuples of unknowns the same back-substitution solves together
   in small dense systems. The block list and the eigenvalues come from
   Schur (blocks, eigenvalues). Permutation-symmetric
   order-3 data (the third-order associated series) has its own
   back-substitution over the i <= j <= l entries only,
   tri_solve_sym3. *)

type t = { n : int; schur : Schur.t }

let prepare (g : Mat.t) : t =
  Contract.require_square "Ksolve.prepare" (Mat.dims g);
  Obs.Span.with_ ~name:"ksolve.prepare" (fun () ->
      (* the dense Schur factorization charges itself *)
      { n = Mat.rows g; schur = Schur.decompose g })

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

(* Real variant of mode_mul: multiply along mode [m] by [mat] (or its
   transpose). *)
let mode_mul_real ~n ~k ~m ?(transpose = false) (mat : Mat.t) (x : Vec.t) :
    Vec.t =
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
        let c = if transpose then Mat.get mat j i else Mat.get mat i j in
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
   underflow. [diag_abs i] is |t_ii|. *)
let pole_tol2 ~mu ~n ~diag_abs ~k ~sigma_abs =
  if mu > 0.0 then 1e-300
  else begin
    let rho = ref 0.0 in
    for i = 0 to n - 1 do
      rho := Float.max !rho (diag_abs i)
    done;
    let tol =
      float_of_int n *. epsilon_float
      *. (sigma_abs +. (float_of_int k *. !rho))
    in
    Float.max 1e-300 (tol *. tol)
  end

let pole_tol2_complex ~mu (tmat : Cmat.t) ~k ~(sigma : Complex.t) =
  let n = Cmat.rows tmat in
  pole_tol2 ~mu ~n ~k ~sigma_abs:(Complex.norm sigma) ~diag_abs:(fun i ->
      Float.hypot tmat.Cmat.re.((i * n) + i) tmat.Cmat.im.((i * n) + i))

(* the real kernels' threshold: |lam_i| read off the real factor's
   eigenvalues, |t_ii| on a triangular T *)
let pole_tol2_real ~mu (eig : Complex.t array) ~k ~sigma =
  pole_tol2 ~mu ~n:(Array.length eig) ~k ~sigma_abs:(Float.abs sigma)
    ~diag_abs:(fun i -> Complex.norm eig.(i))

(* Nominal charges of the back-substitutions, per arithmetic: flops per
   multiply-add and per (Tikhonov) scalar division, and 8-byte words per
   scalar. A complex multiply-add is 8 flops on 2 words; the real one 2
   on 1. *)
type arith = { madd : int; div : int; word : int }

let complex_arith = { madd = 8; div = 11; word = 2 }

let real_arith = { madd = 2; div = 5; word = 1 }

(* The charge of a whole recursive solve, on the caller and outside
   the Par tiles, so counts are identical at any domain count: level k'
   of the recursion has n^(k-k') nodes, each the rhs updates of its n
   blocks of n^(k'-1) entries, or at k' = 1 the scalar
   back-substitution. *)
let charge_tri a ~n ~k =
  for lev = k downto 1 do
    let nodes = expected_len n (k - lev) in
    if lev = 1 then
      Obs.Cost.charge Obs.Cost.Flops_trisolve
        (nodes * ((a.madd * n * (n - 1) / 2) + (a.div * n)))
        ~read:(nodes * ((a.word * n * n / 2) + (a.word * n)))
        ~written:(nodes * a.word * n)
    else begin
      let block = expected_len n (lev - 1) in
      Obs.Cost.charge Obs.Cost.Flops_trisolve
        (nodes * (a.madd * block * n * (n - 1) / 2))
        ~read:(nodes * ((a.word * n * n / 2) + (a.word * n * block)))
        ~written:(nodes * a.word * n * block)
    end
  done

(* the one charge of tri_solve_sym3: (n-1)n(n+1)(n+2)/4 multiply-adds
   over the unique entries, one division each *)
let charge_sym3 a ~n =
  let madds = (n - 1) * n * (n + 1) * (n + 2) / 4 in
  Obs.Cost.charge Obs.Cost.Flops_trisolve
    ((a.madd * madds) + (a.div * (n * (n + 1) * (n + 2) / 6)))
    ~read:((a.word * n * n / 2) + (a.word * madds))
    ~written:(a.word * n * n * n)

(* Recursive triangular solve: (sigma I - ⊕^k T) y = w with T upper
   triangular. Operates in place on a copy of [w]. With [mu] > 0 each
   scalar division uses the Tikhonov-regularized inverse
   conj(d) / (|d|^2 + mu^2) — the diagonal regularization behind the
   one retry of a near-singular shifted solve, exact minimum-norm at
   d = 0. *)
let tri_solve ?(mu = 0.0) (tmat : Cmat.t) ~k ~(sigma : Complex.t) (w : Cvec.t)
    : Cvec.t =
  let mu2 = mu *. mu in
  let tol2 = pole_tol2_complex ~mu tmat ~k ~sigma in
  let n = Cmat.rows tmat in
  let tre = tmat.Cmat.re and tim = tmat.Cmat.im in
  let y = Cvec.copy w in
  let yre = y.Cvec.re and yim = y.Cvec.im in
  charge_tri complex_arith ~n ~k;
  (* solve the block starting at [off] of order [k] with shift
     [sre + i*sim], in place *)
  let rec go ~k ~off ~sre ~sim =
    (* one deadline poll per tensor block (tile): O(n^k) arithmetic per
       poll amortizes the clock read into noise *)
    Robust.Budget.check "la.Ksolve.tri_solve";
    if k = 1 then begin
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
      let block = expected_len n (k - 1) in
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

(* ---- real arithmetic on the real quasi-triangular T ----

   A real shift runs on the real Schur factors. On a real spectrum T is
   triangular and the kernels below are the complex ones scalar for
   scalar: the same recursion, Par tiles, per-entry sum order, budget
   polls and pole rule, with the real Tikhonov inverse d / (d² + mu²).
   A complex pair leaves a 2x2 diagonal block, and (sigma - ⊕^k T) is
   then block upper triangular over k-tuples of diagonal blocks
   (Jonsson-Kågström): the unknowns of a tuple that holds a 2x2 block
   take the same sums over later blocks and are then solved together,
   a dense real system of at most 2^k unknowns whose poles are the
   tuple's eigenvalue sums. mu > 0 solves that system's Tikhonov normal
   equations (MᵀM + mu² I) y = Mᵀ rhs, which on a 1x1 tuple is the
   scalar inverse. *)

(* One tuple's system: the m x m row-major [a] y = [b], solved in place
   in [b] ([a] is overwritten); [zr], [zi] are its eigenvalues, each
   tested as the scalar step tests its diagonal. Gaussian elimination
   with partial pivoting, on the normal equations when mu > 0. *)
let small_solve ~mu ~tol2 m (a : float array) (b : float array)
    (zr : float array) (zi : float array) =
  let mu2 = mu *. mu in
  for u = 0 to m - 1 do
    let dm = (zr.(u) *. zr.(u)) +. (zi.(u) *. zi.(u)) +. mu2 in
    if dm < tol2 then raise (Near_singular (sqrt dm))
  done;
  let a, x =
    if mu > 0.0 then
      ( Array.init (m * m) (fun ij ->
            let i = ij / m and j = ij mod m in
            let s = ref (if i = j then mu2 else 0.0) in
            for r = 0 to m - 1 do
              s := !s +. (a.((r * m) + i) *. a.((r * m) + j))
            done;
            !s),
        Array.init m (fun i ->
            let s = ref 0.0 in
            for r = 0 to m - 1 do
              s := !s +. (a.((r * m) + i) *. b.(r))
            done;
            !s) )
    else (a, b)
  in
  for c = 0 to m - 1 do
    let p = ref c in
    for r = c + 1 to m - 1 do
      if Float.abs a.((r * m) + c) > Float.abs a.((!p * m) + c) then p := r
    done;
    if !p <> c then begin
      for j = 0 to m - 1 do
        let t = a.((c * m) + j) in
        a.((c * m) + j) <- a.((!p * m) + j);
        a.((!p * m) + j) <- t
      done;
      let t = x.(c) in
      x.(c) <- x.(!p);
      x.(!p) <- t
    end;
    for r = c + 1 to m - 1 do
      let f = a.((r * m) + c) /. a.((c * m) + c) in
      if Contract.nonzero f then begin
        for j = c to m - 1 do
          a.((r * m) + j) <- a.((r * m) + j) -. (f *. a.((c * m) + j))
        done;
        x.(r) <- x.(r) -. (f *. x.(c))
      end
    done
  done;
  for r = m - 1 downto 0 do
    let s = ref x.(r) in
    for j = r + 1 to m - 1 do
      s := !s -. (a.((r * m) + j) *. x.(j))
    done;
    x.(r) <- !s /. a.((r * m) + r)
  done;
  if x != b then Array.blit x 0 b 0 m

let real_exn name t =
  match Schur.real_factors t.schur with
  | Some f -> f
  | None -> invalid_arg (name ^ ": the Schur factorization is complex")

let tri_solve_real ?(mu = 0.0) t ~k ~sigma (w : Vec.t) : Vec.t =
  let _, tmat = real_exn "Ksolve.tri_solve_shifted_real" t in
  let n = t.n in
  let tt = Mat.data tmat in
  let blocks = Schur.blocks t.schur and eig = Schur.eigenvalues t.schur in
  let nb = Array.length blocks in
  let mu2 = mu *. mu in
  let tol2 = pole_tol2_real ~mu eig ~k ~sigma in
  let y = Array.copy w in
  charge_tri real_arith ~n ~k;
  (* y[off + row] + Σ_{j >= from} T[row, j] y[off + j] *)
  let leaf_sum ~row ~off ~from =
    let acc = ref y.(off + row) in
    for j = from to n - 1 do
      let c = tt.((row * n) + j) in
      if Contract.nonzero c then acc := !acc +. (c *. y.(off + j))
    done;
    !acc
  in
  (* The rhs of the block [row] of a node at [off] gets the finished
     blocks j >= from: element r reads only the same r of later blocks,
     so the r-range splits into contiguous Par tiles, each keeping the
     serial accumulation order (increasing j): bit-identical at any
     domain count. *)
  let update ~row ~off ~from ~block =
    let bi = off + (row * block) in
    Par.tiles ~lo:0 ~hi:block (fun ~lo ~hi ->
        for j = from to n - 1 do
          let c = tt.((row * n) + j) in
          if Contract.nonzero c then begin
            let bj = off + (j * block) in
            for r = lo to hi - 1 do
              y.(bi + r) <- y.(bi + r) +. (c *. y.(bj + r))
            done
          end
        done)
  in
  (* The diagonal block [b, e) of the current mode for the coupled rows
     [offs] (order-k nodes, one per unknown of the tuple so far) with
     the tuple's shift matrix [sm] and eigenvalue shifts [zr], [zi]:
     its sums over later blocks, then the tuple grows by the block,
     solved at the last mode and otherwise a node of its own, over every
     block of the next mode. *)
  let rec step ~k ~offs ~sm ~zr ~zi (b, e) =
    let m = Array.length offs and sz = e - b in
    let block = expected_len n (k - 1) in
    Array.iter
      (fun off ->
        for row = b to e - 1 do
          if k = 1 then y.(off + row) <- leaf_sum ~row ~off ~from:e
          else update ~row ~off ~from:e ~block
        done)
      offs;
    let m' = m * sz in
    let offs = Array.init m' (fun x -> offs.(x / sz) + ((b + (x mod sz)) * block)) in
    let sm =
      Array.init (m' * m') (fun xz ->
          let x = xz / m' and z = xz mod m' in
          let u = x / sz and r = x mod sz and v = z / sz and q = z mod sz in
          (if r = q then sm.((u * m) + v) else 0.0)
          -. if u = v then tt.(((b + r) * n) + b + q) else 0.0)
    in
    let zr = Array.init m' (fun x -> zr.(x / sz) -. eig.(b + (x mod sz)).re)
    and zi = Array.init m' (fun x -> zi.(x / sz) -. eig.(b + (x mod sz)).im) in
    if k = 1 then begin
      let x = Array.map (fun o -> y.(o)) offs in
      small_solve ~mu ~tol2 m' sm x zr zi;
      Array.iteri (fun u o -> y.(o) <- x.(u)) offs
    end
    else begin
      Robust.Budget.check "la.Ksolve.tri_solve";
      for x = nb - 1 downto 0 do
        step ~k:(k - 1) ~offs ~sm ~zr ~zi blocks.(x)
      done
    end
  in
  (* the node at [off] of order [k] with scalar shift [s]: 1x1 blocks
     as in tri_solve, 2x2 blocks through [step] *)
  let rec go ~k ~off ~s =
    Robust.Budget.check "la.Ksolve.tri_solve";
    for x = nb - 1 downto 0 do
      let b, e = blocks.(x) in
      if e > b + 1 then step ~k ~offs:[| off |] ~sm:[| s |] ~zr:[| s |] ~zi:[| 0.0 |] (b, e)
      else if k = 1 then begin
        let acc = leaf_sum ~row:b ~off ~from:e in
        let d = s -. tt.((b * n) + b) in
        let dm = (d *. d) +. mu2 in
        if dm < tol2 then raise (Near_singular (sqrt dm));
        y.(off + b) <- acc *. d /. dm
      end
      else begin
        let block = expected_len n (k - 1) in
        update ~row:b ~off ~from:e ~block;
        go ~k:(k - 1) ~off:(off + (b * block)) ~s:(s -. tt.((b * n) + b))
      end
    done
  in
  go ~k ~off:0 ~s:sigma;
  y

(* x -> (U^H)^{⊗k} x, or U^{⊗k} x *)
let modes t ~k ~adjoint (v : Cvec.t) : Cvec.t =
  let u = Schur.unitary t.schur in
  let w = ref v in
  for m = 0 to k - 1 do
    w := mode_mul ~n:t.n ~k ~m ~adjoint u !w
  done;
  !w

(* the same on real data with a real orthogonal U *)
let modes_real ~u ~k ~transpose (v : Vec.t) : Vec.t =
  let w = ref v in
  for m = 0 to k - 1 do
    w := mode_mul_real ~n:(Mat.rows u) ~k ~m ~transpose u !w
  done;
  !w

let require_solve name t ~k len =
  Contract.require name (k >= 1) "kron incompatibility"
    (Printf.sprintf "order k = %d must be >= 1" k);
  Contract.require_len name ~expected:(expected_len t.n k) ~actual:len

let real_unitary t = fst (real_exn "Ksolve.real_unitary" t)

(* (sigma I - ⊕^k G) x = v through the Schur basis:
   x = U^⊗k (sigma I - ⊕^k T)^-1 (U^H)^⊗k v.  [mu] > 0 uses the
   Tikhonov-regularized scalar inverse of tri_solve. *)
let solve_shifted ?mu t ~k ~(sigma : Complex.t) (v : Cvec.t) : Cvec.t =
  require_solve "Ksolve.solve_shifted" t ~k (Cvec.dim v);
  Obs.Metrics.incr Obs.Metrics.Shifted_solve;
  Obs.Span.with_ ~name:"ksolve.solve_shifted" (fun () ->
      modes t ~k ~adjoint:false
        (tri_solve ?mu (Schur.triangular t.schur) ~k ~sigma
           (modes t ~k ~adjoint:true v)))

(* Real data at a real shift, in real arithmetic on the real factors. *)
let solve_shifted_real ?mu t ~k ~sigma (v : Vec.t) : Vec.t =
  let u, _ = real_exn "Ksolve.solve_shifted_real" t in
  require_solve "Ksolve.solve_shifted_real" t ~k (Array.length v);
  Obs.Metrics.incr Obs.Metrics.Shifted_solve;
  Obs.Span.with_ ~name:"ksolve.solve_shifted" (fun () ->
      modes_real ~u ~k ~transpose:false
        (tri_solve_real ?mu t ~k ~sigma (modes_real ~u ~k ~transpose:true v)))

(* ---- Schur-coordinate interface ----

   Series recursions (repeated solves at one shift) keep their iterates
   in the Schur basis: each step is then a single triangular tensor
   back-substitution, entered through the Schur images of rank-1
   factors (adjoint_vec) and read out by the caller's own contraction
   with U, never by full mode transforms. *)

(* x -> U^{⊗k} x *)
let from_schur t ~k (v : Cvec.t) : Cvec.t =
  Obs.Span.with_ ~name:"ksolve.from_schur" (fun () -> modes t ~k ~adjoint:false v)

(* U^H b for a real vector: the Schur-basis image of a rank-1 factor. *)
let adjoint_vec t (b : Vec.t) : Cvec.t =
  Contract.require_len "Ksolve.adjoint_vec" ~expected:t.n
    ~actual:(Array.length b);
  Cmat.mul_vec_adjoint (Schur.unitary t.schur) (Cvec.of_real b)

let adjoint_vec_real t (b : Vec.t) : Vec.t =
  let u, _ = real_exn "Ksolve.adjoint_vec_real" t in
  Contract.require_len "Ksolve.adjoint_vec_real" ~expected:t.n
    ~actual:(Array.length b);
  Mat.mul_vec_transpose u b

(* The triangular middle solve only: (sigma I - ⊕^k T) y = w for
   Schur-basis data. *)
let tri_solve_shifted ?mu t ~k ~(sigma : Complex.t) (w : Cvec.t) : Cvec.t =
  Contract.require_len "Ksolve.tri_solve_shifted"
    ~expected:(expected_len t.n k) ~actual:(Cvec.dim w);
  Obs.Metrics.incr Obs.Metrics.Shifted_solve;
  tri_solve ?mu (Schur.triangular t.schur) ~k ~sigma w

let tri_solve_shifted_real ?mu t ~k ~sigma (w : Vec.t) : Vec.t =
  Contract.require_len "Ksolve.tri_solve_shifted_real"
    ~expected:(expected_len t.n k) ~actual:(Array.length w);
  Obs.Metrics.incr Obs.Metrics.Shifted_solve;
  tri_solve_real ?mu t ~k ~sigma w

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
  Obs.Span.with_ ~name:"ksolve.tri_sym3" @@ fun () ->
  let n2 = n * n in
  (* Nominal charge, on the caller and outside the Par tiles. *)
  charge_sym3 complex_arith ~n;
  let mu2 = mu *. mu in
  let tmat = Schur.triangular t.schur in
  let tol2 = pole_tol2_complex ~mu tmat ~k:3 ~sigma in
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

(* tri_solve_sym3 in real arithmetic, for a real factorization and a
   real shift. On a triangular T: the same entry order, tiles, sum order
   per entry, polls and pole rule as the complex kernel, with the real
   Tikhonov inverse. A 2x2 block makes the levels, rows and entries
   block-wise: sorted block triples B0 <= B1 <= B2, one budget poll per
   level block B0, and a triple that holds a 2x2 block is solved for
   all of B0 x B1 x B2 together, each unknown's right-hand side read at
   its sorted position and each solution written to its six
   permutations. *)
let tri_solve_sym3_real ?(mu = 0.0) t ~sigma (w : Vec.t) : Vec.t =
  let n = t.n in
  let _, tmat = real_exn "Ksolve.tri_solve_sym3_real" t in
  Contract.require_len "Ksolve.tri_solve_sym3_real" ~expected:(expected_len n 3)
    ~actual:(Array.length w);
  Obs.Metrics.incr Obs.Metrics.Shifted_solve;
  Obs.Span.with_ ~name:"ksolve.tri_sym3" @@ fun () ->
  let n2 = n * n in
  charge_sym3 real_arith ~n;
  let mu2 = mu *. mu in
  let blocks = Schur.blocks t.schur and eig = Schur.eigenvalues t.schur in
  let nb = Array.length blocks in
  let tol2 = pole_tol2_real ~mu eig ~k:3 ~sigma in
  let tt = Mat.data tmat in
  let y = Array.copy w in
  let store i j l x =
    let ii = i * n2 and jj = j * n2 and ll = l * n2 in
    y.(ii + (j * n) + l) <- x;
    y.(ii + (l * n) + j) <- x;
    y.(jj + (i * n) + l) <- x;
    y.(jj + (l * n) + i) <- x;
    y.(ll + (i * n) + j) <- x;
    y.(ll + (j * n) + i) <- x
  in
  (* Slot-0 sums of the row [i] of the level whose second block starts
     at [e0] or later, which read only finished levels p >= e0: the pair
     range splits into Par tiles. Each tile runs p outermost over its
     contiguous l-runs, keeping every entry's accumulation order
     (increasing p) that of the serial solve, so the result is
     bit-identical at any domain count. *)
  let slot0 i e0 =
    let m = n - e0 in
    Par.tiles ~lo:0 ~hi:(m * (m + 1) / 2) (fun ~lo ~hi ->
        for p = e0 to n - 1 do
          let c = tt.((i * n) + p) in
          (* row j holds pairs [off, off + n - j) of the level *)
          let off = ref 0 in
          for j = e0 to n - 1 do
            let a = max lo !off and b = min hi (!off + n - j) in
            (* pair index x sits at (i, j, j + x - off) *)
            let bi = (i * n2) + (j * n) + j - !off
            and bp = (p * n2) + (j * n) + j - !off in
            for x = a to b - 1 do
              y.(bi + x) <- y.(bi + x) +. (c *. y.(bp + x))
            done;
            off := !off + n - j
          done
        done)
  in
  (* Slot-1 sums of the row (i, j) for the entries l >= e1, which read
     only rows c >= e1: over contiguous l, each entry still adding its
     terms in increasing c after its slot-0 sum, as the sweep would. *)
  let slot1 i j e1 =
    let row = (i * n2) + (j * n) in
    for c = e1 to n - 1 do
      let tc = tt.((j * n) + c) and src = (i * n2) + (c * n) in
      for l = e1 to n - 1 do
        y.(row + l) <- y.(row + l) +. (tc *. y.(src + l))
      done
    done
  in
  (* a triple of blocks [i0, e0) x [j0, e1) x [l0, e2) with a 2x2 block:
     at most 8 unknowns *)
  let sa = Array.make 64 0.0 and sb = Array.make 8 0.0 in
  let zr = Array.make 8 0.0 and zi = Array.make 8 0.0 in
  let block_triple i0 e0 j0 e1 l0 e2 =
    let s1 = e1 - j0 and s2 = e2 - l0 in
    let m = (e0 - i0) * s1 * s2 in
    let idx u = (i0 + (u / (s1 * s2)), j0 + (u / s2 mod s1), l0 + (u mod s2)) in
    for u = 0 to m - 1 do
      let i, j, l = idx u in
      let a = min i (min j l) and c = max i (max j l) in
      let acc = ref y.((a * n2) + ((i + j + l - a - c) * n) + c) in
      (* the slots the pre-passes left: 0 while B1 = B0, 1 while
         B2 = B1 or B1 = B0 *)
      if j0 < e0 then
        for c = e0 to n - 1 do
          acc := !acc +. (tt.((i * n) + c) *. y.((c * n2) + (j * n) + l))
        done;
      if j0 < e0 || l0 < e1 then
        for c = e1 to n - 1 do
          acc := !acc +. (tt.((j * n) + c) *. y.((i * n2) + (c * n) + l))
        done;
      for c = e2 to n - 1 do
        acc := !acc +. (tt.((l * n) + c) *. y.((i * n2) + (j * n) + c))
      done;
      sb.(u) <- !acc;
      zr.(u) <- sigma -. eig.(i).re -. eig.(j).re -. eig.(l).re;
      zi.(u) <- eig.(i).im +. eig.(j).im +. eig.(l).im;
      for v = 0 to m - 1 do
        let i', j', l' = idx v in
        sa.((u * m) + v) <-
          (if u = v then sigma else 0.0)
          -. (if j = j' && l = l' then tt.((i * n) + i') else 0.0)
          -. (if i = i' && l = l' then tt.((j * n) + j') else 0.0)
          -. if i = i' && j = j' then tt.((l * n) + l') else 0.0
      done
    done;
    small_solve ~mu ~tol2 m sa sb zr zi;
    for u = 0 to m - 1 do
      let i, j, l = idx u in
      store i j l sb.(u)
    done
  in
  for x0 = nb - 1 downto 0 do
    Robust.Budget.check "la.Ksolve.tri_solve_sym3";
    let i0, e0 = blocks.(x0) in
    for r = i0 to e0 - 1 do
      slot0 r e0
    done;
    for x1 = nb - 1 downto x0 do
      let j0, e1 = blocks.(x1) in
      (* B1 = B0 sums slot 0 in the sweep, so all of its slots stay
         there *)
      if x1 > x0 then
        for r = i0 to e0 - 1 do
          for q = j0 to e1 - 1 do
            slot1 r q e1
          done
        done;
      for x2 = nb - 1 downto x1 do
        let l0, e2 = blocks.(x2) in
        if i0 + 1 = e0 && j0 + 1 = e1 && l0 + 1 = e2 then begin
          let i = i0 and j = j0 and l = l0 in
          let acc = ref y.((i * n2) + (j * n) + l) in
          (* slots 0 (p, row i; only on the row j = i), 1 (q; here only
             on j = i or l = j) and 2 (r) *)
          if j = i then
            for c = i + 1 to n - 1 do
              acc := !acc +. (tt.((i * n) + c) *. y.((c * n2) + (j * n) + l))
            done;
          if j = i || l = j then
            for c = j + 1 to n - 1 do
              acc := !acc +. (tt.((j * n) + c) *. y.((i * n2) + (c * n) + l))
            done;
          for c = l + 1 to n - 1 do
            acc := !acc +. (tt.((l * n) + c) *. y.((i * n2) + (j * n) + c))
          done;
          let d = sigma -. tt.((i * n) + i) -. tt.((j * n) + j) -. tt.((l * n) + l) in
          let dm = (d *. d) +. mu2 in
          if dm < tol2 then raise (Near_singular (sqrt dm));
          store i j l (!acc *. d /. dm)
        end
        else block_triple i0 e0 j0 e1 l0 e2
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
