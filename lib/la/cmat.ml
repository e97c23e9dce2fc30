(* Dense complex matrices in split (re/im) row-major storage. *)

type t = { rows : int; cols : int; re : float array; im : float array }

let create rows cols =
  {
    rows;
    cols;
    re = Array.make (rows * cols) 0.0;
    im = Array.make (rows * cols) 0.0;
  }

let rows m = m.rows

let cols m = m.cols

let get m i j : Complex.t =
  let k = (i * m.cols) + j in
  { re = m.re.(k); im = m.im.(k) }

let set m i j (z : Complex.t) =
  let k = (i * m.cols) + j in
  m.re.(k) <- z.re;
  m.im.(k) <- z.im

let add_to m i j (z : Complex.t) =
  let k = (i * m.cols) + j in
  m.re.(k) <- m.re.(k) +. z.re;
  m.im.(k) <- m.im.(k) +. z.im

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      set m i j (f i j)
    done
  done;
  m

let of_real (a : Mat.t) =
  {
    rows = Mat.rows a;
    cols = Mat.cols a;
    re = Array.copy (Mat.data a);
    im = Array.make (Mat.rows a * Mat.cols a) 0.0;
  }

let copy m = { m with re = Array.copy m.re; im = Array.copy m.im }

let scale (alpha : Complex.t) m =
  {
    m with
    re =
      Array.init (Array.length m.re) (fun k ->
          (alpha.re *. m.re.(k)) -. (alpha.im *. m.im.(k)));
    im =
      Array.init (Array.length m.im) (fun k ->
          (alpha.re *. m.im.(k)) +. (alpha.im *. m.re.(k)));
  }

(* Conjugate transpose. *)
let adjoint m =
  init m.cols m.rows (fun i j -> Complex.conj (get m j i))

let mul_vec m (v : Cvec.t) : Cvec.t =
  if m.cols <> Cvec.dim v then invalid_arg "Cmat.mul_vec: dimension mismatch";
  Obs.Cost.charge Obs.Cost.Flops_matvec
    (8 * m.rows * m.cols)
    ~read:(2 * ((m.rows * m.cols) + m.cols))
    ~written:(2 * m.rows);
  let out = Cvec.create m.rows in
  for i = 0 to m.rows - 1 do
    let row = i * m.cols in
    let sre = ref 0.0 and sim = ref 0.0 in
    for j = 0 to m.cols - 1 do
      let ar = m.re.(row + j) and ai = m.im.(row + j) in
      sre := !sre +. (ar *. v.re.(j)) -. (ai *. v.im.(j));
      sim := !sim +. (ar *. v.im.(j)) +. (ai *. v.re.(j))
    done;
    out.re.(i) <- !sre;
    out.im.(i) <- !sim
  done;
  out

(* Adjoint action A^H v without forming A^H. *)
let mul_vec_adjoint m (v : Cvec.t) : Cvec.t =
  if m.rows <> Cvec.dim v then
    invalid_arg "Cmat.mul_vec_adjoint: dimension mismatch";
  Obs.Cost.charge Obs.Cost.Flops_matvec
    (8 * m.rows * m.cols)
    ~read:(2 * ((m.rows * m.cols) + m.rows))
    ~written:(2 * m.cols);
  let out = Cvec.create m.cols in
  for i = 0 to m.rows - 1 do
    let row = i * m.cols in
    let vr = v.re.(i) and vi = v.im.(i) in
    if Contract.nonzero vr || Contract.nonzero vi then
      for j = 0 to m.cols - 1 do
        (* conj(a_ij) * v_i *)
        let ar = m.re.(row + j) and ai = m.im.(row + j) in
        out.re.(j) <- out.re.(j) +. (ar *. vr) +. (ai *. vi);
        out.im.(j) <- out.im.(j) +. (ar *. vi) -. (ai *. vr)
      done
  done;
  out

(* shift the diagonal: m + sigma I *)
let add_diag m (sigma : Complex.t) =
  if m.rows <> m.cols then invalid_arg "Cmat.add_diag: not square";
  let out = copy m in
  for i = 0 to m.rows - 1 do
    add_to out i i sigma
  done;
  out
