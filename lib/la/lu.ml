(* LU factorization with partial pivoting (Doolittle), and solves. *)

exception Singular of int

type t = {
  lu : Mat.t; (* packed L (unit diagonal, below) and U (on/above) *)
  piv : int array; (* row permutation: stage k swapped rows k and piv.(k) *)
  sign : float; (* determinant sign of the permutation *)
}

let factor a =
  if not (Mat.is_square a) then invalid_arg "Lu.factor: matrix not square";
  Obs.Metrics.incr Obs.Metrics.Lu_factor;
  Obs.Span.with_ ~name:"lu.factor" (fun () ->
      let nn = Mat.rows a in
      Obs.Cost.charge Obs.Cost.Flops_lu
        (2 * nn * nn * nn / 3)
        ~read:(nn * nn) ~written:(nn * nn);
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
      { lu; piv; sign = !sign })

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
