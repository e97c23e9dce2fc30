(* Structured solves with shifted Kronecker sums of a single matrix:

     (sigma I - ⊕^k G) x = v,   v of length n^k,  k = 1, 2, 3, ...

   never materializing the n^k x n^k operator. One real Schur
   factorization G = U T Uᵀ gives

     sigma I - ⊕^k G = (U ⊗..⊗ U)(sigma I - ⊕^k T)(U ⊗..⊗ U)ᵀ

   and the middle solve is a recursive block back-substitution over
   order-k tensors (cost O(k n^{k+1}), memory O(n^k)). This is the §2.3
   trick of the paper. When G's spectrum is real, T is triangular and
   the back-substitution is scalar; a complex pair leaves a 2x2 block,
   whose tuples of unknowns the same back-substitution solves together
   in small dense real systems. A complex shift a + ib runs on the same
   real factors: its data is a tuple of two real slots (re, im) with the
   shift matrix [a -b; b a], and every sum over the real T applies to
   both slots unchanged. The block list and the eigenvalues come from
   Schur (blocks, eigenvalues). Permutation-symmetric order-3 data (the
   third-order associated series) has its own back-substitution over
   the i <= j <= l entries only, tri_solve_sym3_real. *)

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


(* ---- tensor primitives on flat arrays ---- *)

(* Multiply the order-k tensor [x] (dims all [n], row-major, mode 0
   slowest) along mode [m] by [mat] (or its transpose). *)
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
   sigma - (lam_i1 + ... + lam_ik) within n·eps·(|sigma| + k·max|lam_i|)
   of zero is a pole to working precision. A backward-stable Schur
   places eigenvalues only to about eps·‖G‖, so an exact pole (a
   singular G at sigma = 0, say) shows up as a rounding-sized nonzero,
   not as 0. A regularized solve (mu > 0) is finite at a pole and only
   guards underflow. The |lam_i| are read off the real factor's
   eigenvalues (|t_ii| on a triangular T). *)
let pole_tol2 ~mu (eig : Complex.t array) ~k ~sigma_abs =
  if mu > 0.0 then 1e-300
  else begin
    let rho = Array.fold_left (fun r z -> Float.max r (Complex.norm z)) 0.0 eig in
    let tol =
      float_of_int (Array.length eig) *. epsilon_float
      *. (sigma_abs +. (float_of_int k *. rho))
    in
    Float.max 1e-300 (tol *. tol)
  end


(* Nominal charges of the back-substitutions, per arithmetic: flops per
   multiply-add and per (Tikhonov) scalar division, and 8-byte words per
   scalar. A real multiply-add is 2 flops on 1 word; data of m real
   slots on the real T (a complex shift's (re, im) pair, m = 2) is
   charged as m real solves: 4 flops per multiply-add on 2 words for
   complex data. *)
type arith = { madd : int; div : int; word : int }

let real_arith = { madd = 2; div = 5; word = 1 }

let tuple_arith m =
  { madd = m * real_arith.madd; div = m * real_arith.div; word = m * real_arith.word }

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

(* ---- the back-substitution on the real quasi-triangular T ----

   On a real spectrum T is triangular and a scalar shift's solve is a
   scalar back-substitution: a recursion over the modes with Par tiles,
   a fixed per-entry sum order, budget polls and the relative pole rule,
   and the real Tikhonov inverse d / (d² + mu²). A complex pair leaves a
   2x2 diagonal block, and (sigma - ⊕^k T) is then block upper
   triangular over k-tuples of diagonal blocks (Jonsson-Kågström): the
   unknowns of a tuple that holds a 2x2 block take the same sums over
   later blocks and are then solved together, a dense real system of at
   most 2^k unknowns (times the slots) whose poles are the tuple's
   eigenvalue sums. mu > 0 solves that system's Tikhonov normal
   equations (MᵀM + mu² I) y = Mᵀ rhs, which on a 1x1 tuple is the
   scalar inverse. A shift given as m real slots with an m x m shift
   matrix S (a complex sigma = a + ib: its (re, im) pair and
   [a -b; b a]) starts every block as such a tuple, so
   (S ⊗ I - I ⊗ ⊕^k T) y = w runs through the same sums; on a 1x1
   tuple of a complex sigma the Tikhonov system is the complex inverse
   conj(d) / (|d|² + mu²). *)

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

(* The shift of a back-substitution: a real scalar, or a tuple of m real
   slots of the data (slot u at u·n^k) with the real m x m shift matrix
   [sm] (row-major) and its eigenvalues [eig]. *)
type shift = Scalar of float | Tuple of { sm : float array; eig : Complex.t array }

let tri_solve_real ?(mu = 0.0) t ~k shift (w : Vec.t) : Vec.t =
  let n = t.n in
  let tt = Mat.data (snd (Schur.real_factors t.schur)) in
  let blocks = Schur.blocks t.schur and eig = Schur.eigenvalues t.schur in
  let nb = Array.length blocks in
  let mu2 = mu *. mu in
  let sigma_abs, arith =
    match shift with
    | Scalar s -> (Float.abs s, real_arith)
    | Tuple { eig = z; _ } ->
      ( Array.fold_left (fun r z -> Float.max r (Complex.norm z)) 0.0 z,
        tuple_arith (Array.length z) )
  in
  let tol2 = pole_tol2 ~mu eig ~k ~sigma_abs in
  let y = Array.copy w in
  charge_tri arith ~n ~k;
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
     scalar, 2x2 blocks through [step] *)
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
  (match shift with
  | Scalar s -> go ~k ~off:0 ~s
  | Tuple { sm; eig = z } ->
    (* every block starts a tuple of the slots *)
    let offs = Array.init (Array.length z) (fun u -> u * expected_len n k) in
    let zr = Array.map (fun (c : Complex.t) -> c.re) z
    and zi = Array.map (fun (c : Complex.t) -> c.im) z in
    Robust.Budget.check "la.Ksolve.tri_solve";
    for x = nb - 1 downto 0 do
      step ~k ~offs ~sm ~zr ~zi blocks.(x)
    done);
  y

(* x -> (Uᵀ)^{⊗k} x, or U^{⊗k} x, for the real orthogonal U *)
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

let real_unitary t = fst (Schur.real_factors t.schur)

let transpose t = { t with schur = Schur.transpose t.schur }

(* (sigma I - ⊕^k G) x = v through the Schur basis:
   x = U^⊗k (sigma I - ⊕^k T)^-1 (Uᵀ)^⊗k v. U is real, so the mode
   transforms act on the real and imaginary parts apart, and the middle
   solve runs on their (re, im) tuple with the shift matrix
   [a -b; b a] of sigma = a + ib. *)
let solve_shifted ?mu t ~k ~(sigma : Complex.t) (v : Cvec.t) : Cvec.t =
  require_solve "Ksolve.solve_shifted" t ~k (Cvec.dim v);
  Obs.Metrics.incr Obs.Metrics.Shifted_solve;
  Obs.Span.with_ ~name:"ksolve.solve_shifted" (fun () ->
      let u = real_unitary t and len = Cvec.dim v in
      let y =
        tri_solve_real ?mu t ~k
          (Tuple
             {
               sm = [| sigma.re; -.sigma.im; sigma.im; sigma.re |];
               eig = [| sigma; Complex.conj sigma |];
             })
          (Array.append
             (modes_real ~u ~k ~transpose:true v.Cvec.re)
             (modes_real ~u ~k ~transpose:true v.Cvec.im))
      in
      Cvec.make
        ~re:(modes_real ~u ~k ~transpose:false (Array.sub y 0 len))
        ~im:(modes_real ~u ~k ~transpose:false (Array.sub y len len)))

(* Real data at a real shift, in real arithmetic on the real factors. *)
let solve_shifted_real ?mu t ~k ~sigma (v : Vec.t) : Vec.t =
  let u = real_unitary t in
  require_solve "Ksolve.solve_shifted_real" t ~k (Array.length v);
  Obs.Metrics.incr Obs.Metrics.Shifted_solve;
  Obs.Span.with_ ~name:"ksolve.solve_shifted" (fun () ->
      modes_real ~u ~k ~transpose:false
        (tri_solve_real ?mu t ~k (Scalar sigma) (modes_real ~u ~k ~transpose:true v)))

(* ---- Schur-coordinate interface ----

   Series recursions (repeated solves at one shift) keep their iterates
   in the Schur basis: each step is then a single triangular tensor
   back-substitution, entered through the Schur images of rank-1
   factors (adjoint_vec_real) and read out by the caller's own
   contraction with U, never by full mode transforms. *)

(* Uᵀ b: the Schur-basis image of a rank-1 factor. *)
let adjoint_vec_real t (b : Vec.t) : Vec.t =
  Contract.require_len "Ksolve.adjoint_vec_real" ~expected:t.n
    ~actual:(Array.length b);
  Mat.mul_vec_transpose (real_unitary t) b

(* The middle solve only: (sigma I - ⊕^k T) y = w for Schur-basis
   data. *)
let tri_solve_shifted_real ?mu t ~k ~sigma (w : Vec.t) : Vec.t =
  Contract.require_len "Ksolve.tri_solve_shifted_real"
    ~expected:(expected_len t.n k) ~actual:(Array.length w);
  Obs.Metrics.incr Obs.Metrics.Shifted_solve;
  tri_solve_real ?mu t ~k (Scalar sigma) w

(* (S ⊗ I - I ⊗ T) y = w for Schur-basis data in m slots: an eq.-18
   column tuple (Sylvester). *)
let tri_solve_tuple t ~(sm : Mat.t) ~eig (w : Vec.t) : Vec.t =
  let m = Array.length eig in
  Contract.require_dims "Ksolve.tri_solve_tuple" ~expected:(m, m) ~actual:(Mat.dims sm);
  Contract.require_len "Ksolve.tri_solve_tuple" ~expected:(m * t.n)
    ~actual:(Array.length w);
  Obs.Metrics.incr Obs.Metrics.Shifted_solve;
  tri_solve_real t ~k:1 (Tuple { sm = Mat.data sm; eig }) w

(* Triangular ⊕³ solve for permutation-symmetric data, at a real shift:
   (sigma I - ⊕³T) y = w with w, hence y, invariant under every
   permutation of (i, j, l) (⊕³T commutes with them). On a triangular T
   only the n(n+1)(n+2)/6 entries with i <= j <= l are solved, as

     y_ijl = (w_ijl + Σ_{p>i} T_ip y_pjl + Σ_{q>j} T_jq y_iql
                    + Σ_{r>l} T_lr y_ijr) / (sigma - t_ii - t_jj - t_ll),

   levels i descending, then j and l descending from n-1; each solved
   value goes to all six permutations, so the result is the full n³
   layout. Everything an entry reads is an earlier entry of that order
   (or its permutation). Entries off i <= j <= l of [w] are never
   read. Schur triangles are dense, so unlike {!tri_solve_real} the
   inner loops carry no zero-coefficient test. A 2x2 block makes the
   levels, rows and entries block-wise: sorted block triples
   B0 <= B1 <= B2, one budget poll per level block B0, and a triple that
   holds a 2x2 block is solved for all of B0 x B1 x B2 together, each
   unknown's right-hand side read at its sorted position and each
   solution written to its six permutations. *)
let tri_solve_sym3_real ?(mu = 0.0) t ~sigma (w : Vec.t) : Vec.t =
  let n = t.n in
  Contract.require_len "Ksolve.tri_solve_sym3_real" ~expected:(expected_len n 3)
    ~actual:(Array.length w);
  Obs.Metrics.incr Obs.Metrics.Shifted_solve;
  Obs.Span.with_ ~name:"ksolve.tri_sym3" @@ fun () ->
  let n2 = n * n in
  charge_sym3 real_arith ~n;
  let mu2 = mu *. mu in
  let blocks = Schur.blocks t.schur and eig = Schur.eigenvalues t.schur in
  let nb = Array.length blocks in
  let tol2 = pole_tol2 ~mu eig ~k:3 ~sigma_abs:(Float.abs sigma) in
  let tt = Mat.data (snd (Schur.real_factors t.schur)) in
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