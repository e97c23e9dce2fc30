(* Dense linear-solve fallback ladder: LU -> column-pivoted QR ->
   Tikhonov-regularized normal equations.

   The workhorse behind every recovery-instrumented [(s0 I - G1)^-1]
   solve. Factorizations are computed lazily per rung and cached, so a
   fault-free run pays exactly one LU factorization plus an O(n)
   finiteness check per solve (the residual test only runs under
   VMOR_CHECKS). Escalation happens when a rung raises ([Lu.Singular],
   a non-finite contract) or returns an invalid solution; each
   escalation is recorded against the optional [Robust.Report]
   recorder with the rung it fell back to. *)

type rung = [ `Lu | `Qr | `Tikhonov ]

let rung_name = function `Lu -> "lu" | `Qr -> "qr" | `Tikhonov -> "tikhonov"

(* Column-pivoted Householder QR of a square matrix, with numerical
   rank; rank-deficient systems get the basic least-squares solution
   (zero weight on the deflated columns). *)
type pqr = {
  w : Mat.t;  (* Householder vectors below the diagonal, R on/above *)
  betas : float array;
  perm : int array;  (* column j of R corresponds to x.(perm.(j)) *)
  rank : int;
  pn : int;
}

type t = {
  a : Mat.t;
  n : int;
  mu : float;  (* relative Tikhonov parameter *)
  anorm : float;  (* inf-norm of [a], for residual/regularization scales *)
  rungs : rung list;
  loc : Robust.Error.location;
  recorder : Robust.Report.recorder option;
  mutable lu : Lu.t option;
  mutable lu_failed : bool;  (* factorization known singular *)
  mutable qr : pqr option;
  mutable tik : Lu.t option;
  mutable last : rung;
}

let default_loc = Robust.Error.loc ~subsystem:"la" ~operation:"Ladder.solve"

let contains_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* Exceptions the ladder recovers from; anything else propagates. *)
let classify ?(loc = default_loc) = function
  | Lu.Singular _ ->
    Some
      (Robust.Error.Singular_solve { loc; shift = Float.nan; distance = 0.0 })
  | Ksolve.Near_singular d ->
    Some (Robust.Error.Singular_solve { loc; shift = Float.nan; distance = d })
  | Robust.Error.Error e -> Some e
  | Invalid_argument msg when contains_substring ~sub:"non-finite" msg ->
    Some (Robust.Error.Contract_violation { loc; detail = msg })
  | _ -> None

let make ?recorder ?(mu = 1e-8) ?(rungs = [ `Lu; `Qr; `Tikhonov ])
    ?(loc = default_loc) (a : Mat.t) : t =
  Contract.require_square "Ladder.make" (Mat.dims a);
  Contract.require "Ladder.make" (rungs <> []) "dimension mismatch"
    "at least one rung required";
  let t =
    {
      a;
      n = Mat.rows a;
      mu;
      anorm = Mat.norm_inf a;
      rungs;
      loc;
      recorder;
      lu = None;
      lu_failed = false;
      qr = None;
      tik = None;
      last = List.hd rungs;
    }
  in
  (* Eager LU so a structurally singular operator is noticed (and
     recorded) at construction, like the plain [Lu.factor] it
     replaces. *)
  if List.mem `Lu rungs then begin
    match Lu.factor a with
    | lu -> t.lu <- Some lu
    | exception Lu.Singular _ ->
      t.lu_failed <- true;
      Robust.Report.record_opt recorder ~action:"fallback:qr"
        (Robust.Error.Singular_solve
           { loc; shift = Float.nan; distance = 0.0 })
  end;
  t

(* ---- column-pivoted QR (same Householder kernel as {!Qr.factor},
   plus greedy column pivoting on the remaining norms) ---- *)

let pqr_factor (a : Mat.t) : pqr =
  let n = Mat.rows a in
  let w = Mat.copy a in
  let betas = Array.make (max n 1) 0.0 in
  let perm = Array.init n Fun.id in
  for k = 0 to n - 1 do
    (* pivot: remaining column with the largest trailing norm *)
    let best = ref k and bestn = ref (-1.0) in
    for j = k to n - 1 do
      let s = ref 0.0 in
      for i = k to n - 1 do
        let x = Mat.get w i j in
        s := !s +. (x *. x)
      done;
      if !s > !bestn then begin
        bestn := !s;
        best := j
      end
    done;
    if !best <> k then begin
      for i = 0 to n - 1 do
        let tmp = Mat.get w i k in
        Mat.set w i k (Mat.get w i !best);
        Mat.set w i !best tmp
      done;
      let tmp = perm.(k) in
      perm.(k) <- perm.(!best);
      perm.(!best) <- tmp
    end;
    let normx = sqrt (Float.max 0.0 !bestn) in
    if normx > 0.0 then begin
      let akk = Mat.get w k k in
      let alpha = if akk >= 0.0 then -.normx else normx in
      let v0 = akk -. alpha in
      if Contract.nonzero v0 then begin
        for i = k + 1 to n - 1 do
          Mat.set w i k (Mat.get w i k /. v0)
        done;
        betas.(k) <- -.v0 /. alpha;
        Mat.set w k k alpha;
        for j = k + 1 to n - 1 do
          let dotv = ref (Mat.get w k j) in
          for i = k + 1 to n - 1 do
            dotv := !dotv +. (Mat.get w i k *. Mat.get w i j)
          done;
          let coef = betas.(k) *. !dotv in
          Mat.add_to w k j (-.coef);
          for i = k + 1 to n - 1 do
            Mat.add_to w i j (-.coef *. Mat.get w i k)
          done
        done
      end
    end
  done;
  (* numerical rank off the pivoted diagonal of R *)
  let dmax = ref 0.0 in
  for i = 0 to n - 1 do
    dmax := Float.max !dmax (Float.abs (Mat.get w i i))
  done;
  let rank = ref 0 in
  (try
     for i = 0 to n - 1 do
       if Float.abs (Mat.get w i i) <= 1e-12 *. !dmax then raise Exit;
       incr rank
     done
   with Exit -> ());
  { w; betas; perm; rank = !rank; pn = n }

let pqr_solve (p : pqr) (b : Vec.t) : Vec.t =
  let n = p.pn in
  (* y = Q^T b *)
  let y = Vec.copy b in
  for k = 0 to n - 1 do
    if Contract.nonzero p.betas.(k) then begin
      let dotv = ref y.(k) in
      for i = k + 1 to n - 1 do
        dotv := !dotv +. (Mat.get p.w i k *. y.(i))
      done;
      let coef = p.betas.(k) *. !dotv in
      y.(k) <- y.(k) -. coef;
      for i = k + 1 to n - 1 do
        y.(i) <- y.(i) -. (coef *. Mat.get p.w i k)
      done
    end
  done;
  (* basic solution: back-substitute the leading rank x rank block,
     zero weight on deflated columns *)
  let z = Vec.create n in
  for i = p.rank - 1 downto 0 do
    let s = ref y.(i) in
    for j = i + 1 to p.rank - 1 do
      s := !s -. (Mat.get p.w i j *. z.(j))
    done;
    z.(i) <- !s /. Mat.get p.w i i
  done;
  let x = Vec.create n in
  for j = 0 to n - 1 do
    x.(p.perm.(j)) <- z.(j)
  done;
  x

(* ---- Tikhonov: (A^T A + lambda^2 I) x = A^T b ---- *)

let tik_factor t : Lu.t =
  let ata = Mat.mul (Mat.transpose t.a) t.a in
  let lambda = Float.max 1e-300 (t.mu *. (t.anorm +. 1e-300)) in
  let lam2 = lambda *. lambda in
  for i = 0 to t.n - 1 do
    Mat.add_to ata i i lam2
  done;
  Lu.factor ata

let force_lu t =
  match t.lu with
  | Some lu -> lu
  | None ->
    if t.lu_failed then raise (Lu.Singular 0)
    else begin
      let lu = Lu.factor t.a in
      t.lu <- Some lu;
      lu
    end

let force_qr t =
  match t.qr with
  | Some p -> p
  | None ->
    let p = pqr_factor t.a in
    t.qr <- Some p;
    p

let force_tik t =
  match t.tik with
  | Some lu -> lu
  | None ->
    let lu = tik_factor t in
    t.tik <- Some lu;
    lu

(* Acceptance: always finite; under VMOR_CHECKS also a loose relative
   residual bound (catches an LU that factored but lost the solution
   to ill-conditioning). *)
let acceptable t (b : Vec.t) (x : Vec.t) =
  Vec.is_finite x
  && (not (Contract.checks_enabled ())
     || begin
          let r = Vec.sub (Mat.mul_vec t.a x) b in
          Vec.norm_inf r
          <= 1e-6 *. ((t.anorm *. Vec.norm_inf x) +. Vec.norm_inf b +. 1e-300)
        end)

let try_solve t (b : Vec.t) : (Vec.t, Robust.Error.t) result =
  Contract.require_len "Ladder.try_solve" ~expected:t.n
    ~actual:(Array.length b);
  let rung_thunk r =
    ( rung_name r,
      fun () ->
        Obs.Metrics.incr Obs.Metrics.Ladder_attempt;
        let x =
          match r with
          | `Lu -> Lu.solve (force_lu t) b
          | `Qr -> pqr_solve (force_qr t) b
          | `Tikhonov ->
            Lu.solve (force_tik t) (Mat.mul_vec (Mat.transpose t.a) b)
        in
        (r, x) )
  in
  match
    Robust.Policy.run_ladder ?recorder:t.recorder ~loc:t.loc
      ~classify:(classify ~loc:t.loc)
      ~validate:(fun (_, x) -> acceptable t b x)
      (List.map rung_thunk t.rungs)
  with
  | Ok (r, x) ->
    t.last <- r;
    Ok x
  | Error e -> Error e

let solve t (b : Vec.t) : Vec.t =
  match try_solve t b with
  | Ok x -> x
  | Error e -> Robust.Error.raise_error e

let last_rung t = t.last
let lu t = t.lu
