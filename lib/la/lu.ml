(* LU factorization with partial pivoting (Doolittle), and solves. *)

exception Singular of int

type t = {
  lu : Mat.t; (* packed L (unit diagonal, below) and U (on/above) *)
  piv : int array; (* row permutation: stage k swapped rows k and piv.(k) *)
  sign : float; (* determinant sign of the permutation *)
  norm1 : float; (* 1-norm of the original matrix, for condition estimates *)
}

let factor a =
  if not (Mat.is_square a) then invalid_arg "Lu.factor: matrix not square";
  Obs.Metrics.incr Obs.Metrics.Lu_factor;
  Obs.Span.with_ ~name:"lu.factor" (fun () ->
      let nn = Mat.rows a in
      Obs.Cost.charge Obs.Cost.Flops_lu
        (2 * nn * nn * nn / 3)
        ~read:(nn * nn) ~written:(nn * nn);
      let norm1 = Mat.norm1 a in
      let n = Mat.rows a in
      let lu = Mat.copy a in
      let piv = Array.make n 0 in
      let sign = ref 1.0 in
      for k = 0 to n - 1 do
        (* Partial pivot: largest magnitude in column k at or below the
           diagonal. *)
        let p = ref k in
        for i = k + 1 to n - 1 do
          if Float.abs (Mat.get lu i k) > Float.abs (Mat.get lu !p k) then
            p := i
        done;
        piv.(k) <- !p;
        if !p <> k then begin
          Mat.swap_rows lu k !p;
          sign := -. !sign
        end;
        let pivot = Mat.get lu k k in
        if Contract.is_zero pivot then raise (Singular k);
        for i = k + 1 to n - 1 do
          let lik = Mat.get lu i k /. pivot in
          Mat.set lu i k lik;
          if Contract.nonzero lik then
            for j = k + 1 to n - 1 do
              Mat.add_to lu i j (-.lik *. Mat.get lu k j)
            done
        done
      done;
      { lu; piv; sign = !sign; norm1 })

let dim t = Mat.rows t.lu

let apply_permutation t (b : Vec.t) =
  let x = Vec.copy b in
  let n = dim t in
  for k = 0 to n - 1 do
    let p = t.piv.(k) in
    if p <> k then begin
      let tmp = x.(k) in
      x.(k) <- x.(p);
      x.(p) <- tmp
    end
  done;
  x

let solve t (b : Vec.t) : Vec.t =
  let n = dim t in
  if Array.length b <> n then invalid_arg "Lu.solve: dimension mismatch";
  Obs.Metrics.incr Obs.Metrics.Lu_solve;
  Obs.Cost.charge Obs.Cost.Flops_trisolve (2 * n * n)
    ~read:((n * n) + n) ~written:n;
  let x = apply_permutation t b in
  (* Forward substitution with unit lower triangle. *)
  for i = 1 to n - 1 do
    let s = ref x.(i) in
    for j = 0 to i - 1 do
      s := !s -. (Mat.get t.lu i j *. x.(j))
    done;
    x.(i) <- !s
  done;
  (* Back substitution with upper triangle. *)
  for i = n - 1 downto 0 do
    let s = ref x.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (Mat.get t.lu i j *. x.(j))
    done;
    x.(i) <- !s /. Mat.get t.lu i i
  done;
  x

(* [solve_transpose t b] solves [A^T x = b] on the same factors:
   A = P^T L U, so A^T = U^T L^T P and x = P^T L^-T U^-T b. *)
let solve_transpose t (b : Vec.t) : Vec.t =
  let n = dim t in
  if Array.length b <> n then
    invalid_arg "Lu.solve_transpose: dimension mismatch";
  Obs.Metrics.incr Obs.Metrics.Lu_solve;
  Obs.Cost.charge Obs.Cost.Flops_trisolve (2 * n * n)
    ~read:((n * n) + n) ~written:n;
  let x = Vec.copy b in
  (* U^T y = b: forward substitution (U^T is lower triangular) *)
  for i = 0 to n - 1 do
    let s = ref x.(i) in
    for j = 0 to i - 1 do
      s := !s -. (Mat.get t.lu j i *. x.(j))
    done;
    x.(i) <- !s /. Mat.get t.lu i i
  done;
  (* L^T z = y: back substitution against the unit lower triangle *)
  for i = n - 2 downto 0 do
    let s = ref x.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (Mat.get t.lu j i *. x.(j))
    done;
    x.(i) <- !s
  done;
  (* undo the row permutation: recorded swaps, in reverse *)
  for k = n - 1 downto 0 do
    let p = t.piv.(k) in
    if p <> k then begin
      let tmp = x.(k) in
      x.(k) <- x.(p);
      x.(p) <- tmp
    end
  done;
  x

let solve_mat t b =
  if Mat.rows b <> dim t then invalid_arg "Lu.solve_mat: dimension mismatch";
  let cols = List.map (solve t) (Mat.cols_list b) in
  Mat.of_cols cols

let det t =
  let n = dim t in
  let d = ref t.sign in
  for i = 0 to n - 1 do
    d := !d *. Mat.get t.lu i i
  done;
  !d

(* Σ log|u_ii|: log|det| without the over/underflow of the product. *)
let log_abs_det t =
  let s = ref 0.0 in
  for i = 0 to dim t - 1 do
    s := !s +. log (Float.abs (Mat.get t.lu i i))
  done;
  !s

let inverse t = solve_mat t (Mat.identity (dim t))

let solve_system a b = solve (factor a) b

let solve_mat_system a b = solve_mat (factor a) b

(* Reciprocal condition number estimate (crude: 1-norm of A vs A^-1 via
   explicit inverse; fine for the small dense systems we use). *)
let rcond_estimate a =
  let f = factor a in
  let inv = inverse f in
  let na = Mat.norm1 a and ni = Mat.norm1 inv in
  if Contract.is_zero na || Contract.is_zero ni then 0.0 else 1.0 /. (na *. ni)

(* Hager/Higham 1-norm estimate of ||A^-1||_1 on existing factors: a
   few power iterations on the dual pair (solve, solve_transpose),
   O(n^2) per iteration against the O(n^3) explicit inverse of
   {!rcond_estimate}. Within a factor of ~3 of the truth in practice,
   which is all a health diagnostic needs. *)
let inv_norm1_estimate t =
  let n = dim t in
  let x = Vec.constant n (1.0 /. float_of_int n) in
  let est = ref 0.0 in
  (try
     for _iter = 1 to 5 do
       let y = solve t x in
       est := Float.max !est (Vec.norm1 y);
       let xi = Vec.map (fun v -> if v >= 0.0 then 1.0 else -1.0) y in
       let z = solve_transpose t xi in
       let jmax = Vec.max_abs_index z in
       (* Hager's stopping rule: no ascent direction left *)
       if Float.abs z.(jmax) <= Vec.dot z x then raise Exit;
       Vec.fill x 0.0;
       x.(jmax) <- 1.0
     done
   with Exit -> ());
  !est

let condest t =
  let ni = inv_norm1_estimate t in
  if Float.is_nan ni then infinity else t.norm1 *. ni
