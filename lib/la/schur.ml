(* Real Schur decomposition A = U T Uᵀ (paper §2.3): U real orthogonal,
   T real quasi-triangular. Householder-Hessenberg reduction and Francis
   double-shift QR (Golub-Van Loan §7.5, LAPACK dlahqr) give the
   factors, and every 2x2 block with real eigenvalues is split into
   triangular form (LAPACK dlanv2), so T is triangular on a real
   spectrum and keeps one standard 2x2 block per complex pair. These
   factors drive every Kronecker-sum solve of {!Ksolve}, at real and
   complex shifts alike, and the eigenvalues are read off its diagonal
   blocks. *)

type t = {
  u : Mat.t;  (* real orthogonal *)
  t : Mat.t;  (* real quasi-triangular *)
  blocks : (int * int) array;
      (* the diagonal blocks of T in order: first index, one past the
         last *)
  eigs : Complex.t array;
}

let convergence_failure steps =
  Robust.Error.raise_error
    (Robust.Error.Convergence_failure
       {
         loc = Robust.Error.loc ~subsystem:"la" ~operation:"Schur.decompose";
         detail = Printf.sprintf "QR iteration exceeded %d steps" steps;
       })

(* LAPACK dlarfg on [v.(0..nr-1)]: the reflector I - tau [1; w][1; w]^T
   mapping [alpha; x] to [beta; 0]. On return v.(0) = beta and
   v.(1..nr-1) = w; tau = 0 when x is already zero. *)
let reflector v nr =
  let alpha = v.(0) in
  let xnorm =
    if nr = 3 then Float.hypot v.(1) v.(2) else Float.abs v.(1)
  in
  if Contract.is_zero xnorm then 0.0
  else begin
    let h = Float.hypot alpha xnorm in
    let beta = if alpha >= 0.0 then -.h else h in
    let scal = 1.0 /. (alpha -. beta) in
    for i = 1 to nr - 1 do
      v.(i) <- v.(i) *. scal
    done;
    v.(0) <- beta;
    (beta -. alpha) /. beta
  end

(* Householder reduction of the row-major n x n [h] to upper Hessenberg
   form, accumulating the orthogonal transform into [u]. *)
let hessenberg_real n (h : float array) (u : float array) =
  let v = Array.make n 0.0 and s = Array.make n 0.0 in
  for k = 0 to n - 3 do
    (* reflector on rows k+1 .. n-1 zeroing h[k+2 .., k] *)
    let m = n - k - 1 in
    let alpha = h.(((k + 1) * n) + k) in
    let xnorm =
      let acc = ref 0.0 in
      for i = k + 2 to n - 1 do
        acc := !acc +. (h.((i * n) + k) *. h.((i * n) + k))
      done;
      sqrt !acc
    in
    if Contract.nonzero xnorm then begin
      let hyp = Float.hypot alpha xnorm in
      let beta = if alpha >= 0.0 then -.hyp else hyp in
      let tau = (beta -. alpha) /. beta in
      let scal = 1.0 /. (alpha -. beta) in
      v.(0) <- 1.0;
      for i = 1 to m - 1 do
        v.(i) <- h.(((k + 1 + i) * n) + k) *. scal
      done;
      h.(((k + 1) * n) + k) <- beta;
      for i = k + 2 to n - 1 do
        h.((i * n) + k) <- 0.0
      done;
      (* left: h[k+1 .., k+1 ..] -= tau v (v^T h[k+1 .., k+1 ..]) *)
      Array.fill s 0 n 0.0;
      for i = 0 to m - 1 do
        let vi = v.(i) and row = (k + 1 + i) * n in
        for j = k + 1 to n - 1 do
          s.(j) <- s.(j) +. (vi *. h.(row + j))
        done
      done;
      for i = 0 to m - 1 do
        let f = tau *. v.(i) and row = (k + 1 + i) * n in
        for j = k + 1 to n - 1 do
          h.(row + j) <- h.(row + j) -. (f *. s.(j))
        done
      done;
      (* right, on every row of h and of u: a[:, k+1 ..] -= tau (a v) v^T *)
      let right (a : float array) =
        for i = 0 to n - 1 do
          let row = (i * n) + k + 1 in
          let d = ref 0.0 in
          for l = 0 to m - 1 do
            d := !d +. (a.(row + l) *. v.(l))
          done;
          let f = tau *. !d in
          for l = 0 to m - 1 do
            a.(row + l) <- a.(row + l) -. (f *. v.(l))
          done
        done
      in
      right h;
      right u
    end
  done

(* LAPACK dlanv2 without its over/underflow rescaling: the rotation
   (cs, sn) that makes the 2x2 block [a b; c d] upper triangular when
   its eigenvalues are real, and a standard complex-pair block
   (a = d, b c < 0) when they are not. Returns (a, b, c, d, cs, sn), with
   [a b; c d]_in = [cs -sn; sn cs] [a b; c d]_out [cs sn; -sn cs]. *)
let standardize a b c d =
  let sign x = if x >= 0.0 then 1.0 else -1.0 in
  if Contract.is_zero c then (a, b, c, d, 1.0, 0.0)
  else if Contract.is_zero b then (d, -.c, 0.0, a, 0.0, 1.0)
  else if Contract.is_zero (a -. d) && sign b <> sign c then (a, b, c, d, 1.0, 0.0)
  else begin
    let temp = a -. d in
    let p = 0.5 *. temp in
    let bcmax = Float.max (Float.abs b) (Float.abs c) in
    let bcmis = Float.min (Float.abs b) (Float.abs c) *. sign b *. sign c in
    let scale = Float.max (Float.abs p) bcmax in
    let z = (p /. scale *. p) +. (bcmax /. scale *. bcmis) in
    if z >= 4.0 *. epsilon_float then begin
      (* real eigenvalues *)
      let r = sqrt scale *. sqrt z in
      let z = p +. if p >= 0.0 then r else -.r in
      let a' = d +. z and d' = d -. (bcmax /. z *. bcmis) in
      let tau = Float.hypot c z in
      (a', b -. c, 0.0, d', z /. tau, c /. tau)
    end
    else begin
      (* complex or nearly equal real eigenvalues: equalize the
         diagonal first *)
      let sigma = b +. c in
      let tau = Float.hypot sigma temp in
      let cs = sqrt (0.5 *. (1.0 +. (Float.abs sigma /. tau))) in
      let sn = -.(p /. (tau *. cs)) *. sign sigma in
      let aa = (a *. cs) +. (b *. sn) and bb = (-.a *. sn) +. (b *. cs) in
      let cc = (c *. cs) +. (d *. sn) and dd = (-.c *. sn) +. (d *. cs) in
      let b = (bb *. cs) +. (dd *. sn) and c = (-.aa *. sn) +. (cc *. cs) in
      let mid = 0.5 *. ((aa *. cs) +. (cc *. sn) +. ((-.bb *. sn) +. (dd *. cs))) in
      if Contract.is_zero c then (mid, b, c, mid, cs, sn)
      else if Contract.is_zero b then (mid, -.c, 0.0, mid, -.sn, cs)
      else if sign b = sign c then begin
        (* real after all: triangularize *)
        let sab = sqrt (Float.abs b) and sac = sqrt (Float.abs c) in
        let p = if c >= 0.0 then sab *. sac else -.(sab *. sac) in
        let tau = 1.0 /. sqrt (Float.abs (b +. c)) in
        let cs1 = sab *. tau and sn1 = sac *. tau in
        (mid +. p, b -. c, 0.0, mid -. p, (cs *. cs1) -. (sn *. sn1),
         (cs *. sn1) +. (sn *. cs1))
      end
      else (mid, b, c, mid, cs, sn)
    end
  end

(* Francis double-shift QR on the upper Hessenberg row-major [h] (LAPACK
   dlahqr with the whole Schur form and vectors wanted), accumulating
   into [z]. Ends quasi-triangular: 1x1 blocks and standardized 2x2
   blocks, a 2x2 block only for a complex pair; every other subdiagonal
   entry is exactly zero.

   A standardized pair [a b; c a] whose smaller off-diagonal is at most
   [drop] (n·eps·‖A‖_F, the backward error of the iteration itself) is
   set triangular with the double eigenvalue a. A semisimple multiple
   eigenvalue, such as the zero eigenvalue of a quadratized diode
   circuit's G1, comes out of the iteration as such pairs, with
   imaginary parts of rounding size; they are real. *)
let francis ~drop n (h : float array) (z : float array) =
  let get i j = h.((i * n) + j) and set i j x = h.((i * n) + j) <- x in
  let ulp = epsilon_float in
  let smlnum = Float.min_float *. (float_of_int n /. ulp) in
  let itmax = 30 * max 10 n in
  let v = Array.make 3 0.0 in
  (* apply the reflector I - t1 [1; v2; v3][1; v2; v3]^T to rows and
     columns k .. k+nr-1 *)
  let reflect ~k ~nr ~i t1 =
    let v2 = v.(1) and t2 = t1 *. v.(1) in
    let v3 = if nr = 3 then v.(2) else 0.0 in
    let t3 = t1 *. v3 in
    let r0 = k * n and r1 = (k + 1) * n and r2 = (k + 2) * n in
    for j = k to n - 1 do
      let sum =
        h.(r0 + j) +. (v2 *. h.(r1 + j)) +. if nr = 3 then v3 *. h.(r2 + j) else 0.0
      in
      h.(r0 + j) <- h.(r0 + j) -. (sum *. t1);
      h.(r1 + j) <- h.(r1 + j) -. (sum *. t2);
      if nr = 3 then h.(r2 + j) <- h.(r2 + j) -. (sum *. t3)
    done;
    let cols (a : float array) ~rows =
      for j = 0 to rows do
        let b = j * n in
        let sum =
          a.(b + k) +. (v2 *. a.(b + k + 1))
          +. if nr = 3 then v3 *. a.(b + k + 2) else 0.0
        in
        a.(b + k) <- a.(b + k) -. (sum *. t1);
        a.(b + k + 1) <- a.(b + k + 1) -. (sum *. t2);
        if nr = 3 then a.(b + k + 2) <- a.(b + k + 2) -. (sum *. t3)
      done
    in
    cols h ~rows:(min (k + 3) i);
    cols z ~rows:(n - 1)
  in
  (* rotate rows and columns (p, p+1) by (cs, sn), as drot *)
  let rotate p cs sn ~i =
    let rot (a : float array) x y =
      let ax = a.(x) and ay = a.(y) in
      a.(x) <- (cs *. ax) +. (sn *. ay);
      a.(y) <- (cs *. ay) -. (sn *. ax)
    in
    for j = i + 1 to n - 1 do
      rot h ((p * n) + j) (((p + 1) * n) + j)
    done;
    for j = 0 to p - 1 do
      rot h ((j * n) + p) ((j * n) + p + 1)
    done;
    for j = 0 to n - 1 do
      rot z ((j * n) + p) ((j * n) + p + 1)
    done
  in
  let kdefl = ref 0 in
  let i = ref (n - 1) in
  while !i >= 0 do
    let i' = !i in
    (* iterate on rows/columns l .. i until a 1x1 or 2x2 block splits
       off at the bottom *)
    let rec sweep its =
      if its > itmax then convergence_failure itmax;
      (* a single negligible subdiagonal (Ahues-Kressner criterion) *)
      let rec small k =
        if k = 0 then 0
        else begin
          let hkk1 = Float.abs (get k (k - 1)) in
          if hkk1 <= smlnum then k
          else begin
            let tst = Float.abs (get (k - 1) (k - 1)) +. Float.abs (get k k) in
            let tst =
              if Contract.is_zero tst then
                tst
                +. (if k >= 2 then Float.abs (get (k - 1) (k - 2)) else 0.0)
                +. if k + 1 <= n - 1 then Float.abs (get (k + 1) k) else 0.0
              else tst
            in
            if hkk1 <= ulp *. tst then begin
              let hk1k = Float.abs (get (k - 1) k) in
              let ab = Float.max hkk1 hk1k and ba = Float.min hkk1 hk1k in
              let hkk = Float.abs (get k k)
              and dif = Float.abs (get (k - 1) (k - 1) -. get k k) in
              let aa = Float.max hkk dif and bb = Float.min hkk dif in
              let s = aa +. ab in
              if ba *. (ab /. s) <= Float.max smlnum (ulp *. (bb *. (aa /. s)))
              then k
              else small (k - 1)
            end
            else small (k - 1)
          end
        end
      in
      let l = small i' in
      if l > 0 then set l (l - 1) 0.0;
      if l >= i' - 1 then l
      else begin
        incr kdefl;
        let h11, h12, h21, h22 =
          if !kdefl mod 20 = 0 then begin
            (* exceptional shifts *)
            let s = Float.abs (get i' (i' - 1)) +. Float.abs (get (i' - 1) (i' - 2)) in
            let h11 = (0.75 *. s) +. get i' i' in
            (h11, -0.4375 *. s, s, h11)
          end
          else if !kdefl mod 10 = 0 then begin
            let s = Float.abs (get (l + 1) l) +. Float.abs (get (l + 2) (l + 1)) in
            let h11 = (0.75 *. s) +. get l l in
            (h11, -0.4375 *. s, s, h11)
          end
          else (get (i' - 1) (i' - 1), get (i' - 1) i', get i' (i' - 1), get i' i')
        in
        (* the two shifts: a complex pair, or twice the real eigenvalue
           of the trailing 2x2 nearer h22 *)
        let rt1r, rt1i, rt2r, rt2i =
          let s = Float.abs h11 +. Float.abs h12 +. Float.abs h21 +. Float.abs h22 in
          if Contract.is_zero s then (0.0, 0.0, 0.0, 0.0)
          else begin
            let h11 = h11 /. s and h12 = h12 /. s
            and h21 = h21 /. s and h22 = h22 /. s in
            let tr = (h11 +. h22) /. 2.0 in
            let det = ((h11 -. tr) *. (h22 -. tr)) -. (h12 *. h21) in
            let rtdisc = sqrt (Float.abs det) in
            if det >= 0.0 then (tr *. s, rtdisc *. s, tr *. s, -.(rtdisc *. s))
            else begin
              let r1 = tr +. rtdisc and r2 = tr -. rtdisc in
              let r = if Float.abs (r1 -. h22) <= Float.abs (r2 -. h22) then r1 else r2 in
              (r *. s, 0.0, r *. s, 0.0)
            end
          end
        in
        (* start the bulge at the lowest m whose H(m, m-1) the step
           would leave negligible *)
        let rec start m =
          let h21s = get (m + 1) m in
          let s = Float.abs (get m m -. rt2r) +. Float.abs rt2i +. Float.abs h21s in
          let h21s = h21s /. s in
          let v1 =
            (h21s *. get m (m + 1))
            +. ((get m m -. rt1r) *. ((get m m -. rt2r) /. s))
            -. (rt1i *. (rt2i /. s))
          in
          let v2 = h21s *. (get m m +. get (m + 1) (m + 1) -. rt1r -. rt2r) in
          let v3 = h21s *. get (m + 2) (m + 1) in
          let s = Float.abs v1 +. Float.abs v2 +. Float.abs v3 in
          v.(0) <- v1 /. s;
          v.(1) <- v2 /. s;
          v.(2) <- v3 /. s;
          if m = l then m
          else begin
            let h00 = Float.abs (get m (m - 1)) *. (Float.abs v.(1) +. Float.abs v.(2)) in
            let h01 =
              ulp *. Float.abs v.(0)
              *. (Float.abs (get (m - 1) (m - 1)) +. Float.abs (get m m)
                 +. Float.abs (get (m + 1) (m + 1)))
            in
            if h00 <= h01 then m else start (m - 1)
          end
        in
        let m = start (i' - 2) in
        (* the double-shift step: chase the bulge from row m to i *)
        for k = m to i' - 1 do
          let nr = min 3 (i' - k + 1) in
          if k > m then
            for r = 0 to nr - 1 do
              v.(r) <- get (k + r) (k - 1)
            done;
          let t1 = reflector v nr in
          if k > m then begin
            set k (k - 1) v.(0);
            set (k + 1) (k - 1) 0.0;
            if k < i' - 1 then set (k + 2) (k - 1) 0.0
          end
          else if m > l then set k (k - 1) (get k (k - 1) *. (1.0 -. t1));
          reflect ~k ~nr ~i:i' t1
        done;
        sweep (its + 1)
      end
    in
    let l = sweep 0 in
    if l = i' - 1 then begin
      (* a 2x2 block split off: triangular if its eigenvalues are real *)
      let p = i' - 1 in
      let a, b, c, d, cs, sn =
        match standardize (get p p) (get p i') (get i' p) (get i' i') with
        | a, b, c, _, cs, sn
          when Contract.nonzero c && Float.min (Float.abs b) (Float.abs c) <= drop ->
          (* a rounding-sized pair: drop the smaller off-diagonal, after
             a quarter turn [a b; c a] -> [a -c; -b a] if that is b *)
          if Float.abs c <= Float.abs b then (a, b, 0.0, a, cs, sn)
          else (a, -.c, 0.0, a, -.sn, cs)
        | blk -> blk
      in
      set p p a;
      set p i' b;
      set i' p c;
      set i' i' d;
      rotate p cs sn ~i:i'
    end;
    kdefl := 0;
    i := l - 1
  done


let decompose (a : Mat.t) : t =
  if Mat.rows a <> Mat.cols a then invalid_arg "Schur: matrix not square";
  let n = Mat.rows a in
  (* Nominal dense-Schur charge: 25 n³ is Golub-Van Loan's count for the
     real Schur form with U, a function of the dimension only — the
     data-dependent sweep count must not leak into the deterministic
     counters. *)
  Obs.Cost.charge Obs.Cost.Flops_schur (25 * n * n * n)
    ~read:(2 * n * n) ~written:(4 * n * n);
  let h = Array.copy (Mat.data a) in
  let u = Mat.data (Mat.identity n) in
  if n > 1 then begin
    hessenberg_real n h u;
    francis ~drop:(float_of_int n *. epsilon_float *. Mat.norm_fro a) n h u
  end;
  (* the diagonal blocks: a nonzero T(i+1,i) opens the standardized
     block [a b; c a] of the pair a ± i·sqrt(|b c|) *)
  let eigs = Array.init n (fun i -> { Complex.re = h.((i * n) + i); im = 0.0 }) in
  let rec blocks i acc =
    if i >= n then Array.of_list (List.rev acc)
    else if i + 1 < n && Contract.nonzero h.(((i + 1) * n) + i) then begin
      let im = sqrt (Float.abs h.((i * n) + i + 1)) *. sqrt (Float.abs h.(((i + 1) * n) + i)) in
      eigs.(i) <- { eigs.(i) with im };
      eigs.(i + 1) <- { eigs.(i + 1) with im = -.im };
      blocks (i + 2) ((i, i + 2) :: acc)
    end
    else blocks (i + 1) ((i, i + 1) :: acc)
  [@@vmor.unbudgeted "one step per diagonal block"]
  in
  {
    u = { Mat.rows = n; cols = n; data = u };
    t = { Mat.rows = n; cols = n; data = h };
    blocks = blocks 0 [];
    eigs;
  }

(* Aᵀ = (U J)(J Tᵀ J)(U J)ᵀ with J the index reversal: J Tᵀ J is upper
   quasi-triangular with the blocks in reverse order, and a standard
   block [a b; c a] stays [a b; c a]. Reversing a pair's eigenvalues
   puts its negative imaginary part first, which conj puts back. *)
let transpose s =
  let n = Mat.rows s.u in
  {
    u = Mat.init n n (fun i j -> Mat.get s.u i (n - 1 - j));
    t = Mat.init n n (fun i j -> Mat.get s.t (n - 1 - j) (n - 1 - i));
    blocks =
      Array.init (Array.length s.blocks) (fun x ->
          let b, e = s.blocks.(Array.length s.blocks - 1 - x) in
          (n - e, n - b));
    eigs = Array.init n (fun i -> Complex.conj s.eigs.(n - 1 - i));
  }

let real_factors s = (s.u, s.t)

let blocks s = Array.copy s.blocks

let eigenvalues s = Array.copy s.eigs

let residual ~(a : Mat.t) s =
  Contract.require_dims "Schur.residual" ~expected:(Mat.dims s.t)
    ~actual:(Mat.dims a);
  let r = Mat.sub (Mat.mul s.u (Mat.mul s.t (Mat.transpose s.u))) a in
  Mat.norm_fro r /. (1.0 +. Mat.norm_fro a)
