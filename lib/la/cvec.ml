(* Complex vectors as a pair of unboxed float arrays (split storage keeps
   the hot Kronecker-sum tensor solves free of boxed [Complex.t]). *)

type t = { re : float array; im : float array }

let create n = { re = Array.make n 0.0; im = Array.make n 0.0 }

let dim v = Array.length v.re

let make ~re ~im =
  if Array.length re <> Array.length im then invalid_arg "Cvec.make: dim";
  { re; im }

let of_real (v : Vec.t) =
  { re = Array.copy v; im = Array.make (Array.length v) 0.0 }

let copy v = { re = Array.copy v.re; im = Array.copy v.im }

let init n f =
  let v = create n in
  for i = 0 to n - 1 do
    let (z : Complex.t) = f i in
    v.re.(i) <- z.re;
    v.im.(i) <- z.im
  done;
  v

let get v i : Complex.t = { re = v.re.(i); im = v.im.(i) }

let set v i (z : Complex.t) =
  v.re.(i) <- z.re;
  v.im.(i) <- z.im

let real_part v : Vec.t = Array.copy v.re

let imag_part v : Vec.t = Array.copy v.im

let norm2 v =
  let s = ref 0.0 in
  for i = 0 to dim v - 1 do
    s := !s +. (v.re.(i) *. v.re.(i)) +. (v.im.(i) *. v.im.(i))
  done;
  sqrt !s

let imag_norm v =
  let s = ref 0.0 in
  for i = 0 to dim v - 1 do
    s := !s +. (v.im.(i) *. v.im.(i))
  done;
  sqrt !s

(* Conjugated dot product: <a, b> = sum conj(a_i) b_i. *)
let dot a b : Complex.t =
  if dim a <> dim b then invalid_arg "Cvec.dot: dim";
  let sre = ref 0.0 and sim = ref 0.0 in
  for i = 0 to dim a - 1 do
    sre := !sre +. (a.re.(i) *. b.re.(i)) +. (a.im.(i) *. b.im.(i));
    sim := !sim +. (a.re.(i) *. b.im.(i)) -. (a.im.(i) *. b.re.(i))
  done;
  { re = !sre; im = !sim }

let add a b =
  if dim a <> dim b then invalid_arg "Cvec.add: dim";
  {
    re = Array.init (dim a) (fun i -> a.re.(i) +. b.re.(i));
    im = Array.init (dim a) (fun i -> a.im.(i) +. b.im.(i));
  }

let sub a b =
  if dim a <> dim b then invalid_arg "Cvec.sub: dim";
  {
    re = Array.init (dim a) (fun i -> a.re.(i) -. b.re.(i));
    im = Array.init (dim a) (fun i -> a.im.(i) -. b.im.(i));
  }

let scale (alpha : Complex.t) v =
  let n = dim v in
  let out = create n in
  for i = 0 to n - 1 do
    out.re.(i) <- (alpha.re *. v.re.(i)) -. (alpha.im *. v.im.(i));
    out.im.(i) <- (alpha.re *. v.im.(i)) +. (alpha.im *. v.re.(i))
  done;
  out

(* y <- y + alpha x *)
let axpy ~(alpha : Complex.t) x y =
  if dim x <> dim y then invalid_arg "Cvec.axpy: dim";
  for i = 0 to dim x - 1 do
    y.re.(i) <- y.re.(i) +. (alpha.re *. x.re.(i)) -. (alpha.im *. x.im.(i));
    y.im.(i) <- y.im.(i) +. (alpha.re *. x.im.(i)) +. (alpha.im *. x.re.(i))
  done

let dist a b = norm2 (sub a b)

(* Real part, failing loudly if the imaginary residue is not negligible:
   for complex data whose exact answer is real. *)
let to_real ?(tol = 1e-6) v : Vec.t =
  let im = imag_norm v and re = norm2 v in
  if im > tol *. (1.0 +. re) then
    Robust.Error.raise_error
      (Robust.Error.Contract_violation
         {
           loc = Robust.Error.loc ~subsystem:"la" ~operation:"Cvec.to_real";
           detail =
             Printf.sprintf "imaginary residue %.3e (norm %.3e)" im re;
         });
  Array.copy v.re

let kron a b =
  let m = dim a and n = dim b in
  let out = create (m * n) in
  for i = 0 to m - 1 do
    let ar = a.re.(i) and ai = a.im.(i) in
    for j = 0 to n - 1 do
      out.re.((i * n) + j) <- (ar *. b.re.(j)) -. (ai *. b.im.(j));
      out.im.((i * n) + j) <- (ar *. b.im.(j)) +. (ai *. b.re.(j))
    done
  done;
  out
