(* Kronecker products and sums.

   Indexing convention (row-major, first factor slowest): for vectors,
   (u ⊗ v).(i * dim v + j) = u.(i) *. v.(j); for matrices,
   (A ⊗ B)[(i*p + k), (j*q + l)] = A[i,j] * B[k,l] with B of size p x q.
   With this convention (A ⊗ B)(u ⊗ v) = (A u) ⊗ (B v), and a flat vector
   of length m*n reshapes to an m x n matrix X with x = vec_row(X), giving
   (A ⊗ B) x = vec_row(A X Bᵀ). *)

let vec (u : Vec.t) (v : Vec.t) : Vec.t =
  let m = Array.length u and n = Array.length v in
  let out = Vec.create (m * n) in
  for i = 0 to m - 1 do
    let ui = u.(i) in
    if Contract.nonzero ui then
      for j = 0 to n - 1 do
        out.((i * n) + j) <- ui *. v.(j)
      done
  done;
  out

let vec_list (vs : Vec.t list) : Vec.t =
  match vs with
  | [] -> invalid_arg "Kron.vec_list: empty"
  | v0 :: rest -> List.fold_left vec v0 rest

(* k-fold Kronecker power of a vector. *)
let vec_pow (v : Vec.t) k =
  if k < 1 then invalid_arg "Kron.vec_pow: k must be >= 1";
  vec_list (List.init k (fun _ -> v))

let mat (a : Mat.t) (b : Mat.t) : Mat.t =
  let ra = Mat.rows a and ca = Mat.cols a in
  let rb = Mat.rows b and cb = Mat.cols b in
  let out = Mat.create (ra * rb) (ca * cb) in
  for i = 0 to ra - 1 do
    for j = 0 to ca - 1 do
      let aij = Mat.get a i j in
      if Contract.nonzero aij then
        for k = 0 to rb - 1 do
          for l = 0 to cb - 1 do
            Mat.set out ((i * rb) + k) ((j * cb) + l) (aij *. Mat.get b k l)
          done
        done
    done
  done;
  out

(* Kronecker sum A ⊕ B = A ⊗ I_nb + I_na ⊗ B (square matrices). *)
let sum (a : Mat.t) (b : Mat.t) : Mat.t =
  Contract.require_square "Kron.sum" (Mat.dims a);
  Contract.require_square "Kron.sum" (Mat.dims b);
  let na = Mat.rows a and nb = Mat.rows b in
  let out = Mat.create (na * nb) (na * nb) in
  for i = 0 to na - 1 do
    for j = 0 to na - 1 do
      let aij = Mat.get a i j in
      if Contract.nonzero aij then
        for k = 0 to nb - 1 do
          Mat.add_to out ((i * nb) + k) ((j * nb) + k) aij
        done
    done
  done;
  for i = 0 to na - 1 do
    for k = 0 to nb - 1 do
      for l = 0 to nb - 1 do
        Mat.add_to out ((i * nb) + k) ((i * nb) + l) (Mat.get b k l)
      done
    done
  done;
  out

let sum_list (ms : Mat.t list) : Mat.t =
  match ms with
  | [] -> invalid_arg "Kron.sum_list: empty"
  | m0 :: rest -> List.fold_left sum m0 rest

(* k-fold Kronecker sum of a matrix with itself: ⊕^k A. *)
let sum_pow (m : Mat.t) k =
  if k < 1 then invalid_arg "Kron.sum_pow: k must be >= 1";
  sum_list (List.init k (fun _ -> m))

(* (A ⊗ B) x without materializing A ⊗ B: reshape x as X (ra' x rb'
   inputs), compute A X Bᵀ. A is ra x ca, B is rb x cb, x has length
   ca * cb, result length ra * rb. *)
let mat_mul_vec_2 (a : Mat.t) (b : Mat.t) (x : Vec.t) : Vec.t =
  let ra = Mat.rows a and ca = Mat.cols a in
  let rb = Mat.rows b and cb = Mat.cols b in
  Contract.require_kron_compat "Kron.mat_mul_vec_2" ~rows:ca ~cols:cb
    ~len:(Array.length x);
  (* t = X Bᵀ : for each row i of X (length cb), t_i = B x_i. *)
  let t = Vec.create (ca * rb) in
  for i = 0 to ca - 1 do
    for k = 0 to rb - 1 do
      let s = ref 0.0 in
      for l = 0 to cb - 1 do
        s := !s +. (Mat.get b k l *. x.((i * cb) + l))
      done;
      t.((i * rb) + k) <- !s
    done
  done;
  (* out = A t (acting on the first index). *)
  let out = Vec.create (ra * rb) in
  for i = 0 to ra - 1 do
    for j = 0 to ca - 1 do
      let aij = Mat.get a i j in
      if Contract.nonzero aij then
        for k = 0 to rb - 1 do
          out.((i * rb) + k) <- out.((i * rb) + k) +. (aij *. t.((j * rb) + k))
        done
    done
  done;
  out

(* (A ⊕ B) x without materializing, A na x na, B nb x nb. *)
let sum_mul_vec (a : Mat.t) (b : Mat.t) (x : Vec.t) : Vec.t =
  Contract.require_square "Kron.sum_mul_vec" (Mat.dims a);
  Contract.require_square "Kron.sum_mul_vec" (Mat.dims b);
  let na = Mat.rows a and nb = Mat.rows b in
  Contract.require_kron_compat "Kron.sum_mul_vec" ~rows:na ~cols:nb
    ~len:(Array.length x);
  let out = Vec.create (na * nb) in
  (* (A ⊗ I) x *)
  for i = 0 to na - 1 do
    for j = 0 to na - 1 do
      let aij = Mat.get a i j in
      if Contract.nonzero aij then
        for k = 0 to nb - 1 do
          out.((i * nb) + k) <- out.((i * nb) + k) +. (aij *. x.((j * nb) + k))
        done
    done
  done;
  (* (I ⊗ B) x *)
  for i = 0 to na - 1 do
    for k = 0 to nb - 1 do
      let s = ref 0.0 in
      for l = 0 to nb - 1 do
        s := !s +. (Mat.get b k l *. x.((i * nb) + l))
      done;
      out.((i * nb) + k) <- out.((i * nb) + k) +. !s
    done
  done;
  out

(* Symmetrization of a 2nd Kronecker power coordinate vector:
   sym2 x has entries (x_(i,j) + x_(j,i)) / 2. *)
let sym2 n (x : Vec.t) : Vec.t =
  Contract.require_kron_compat "Kron.sym2" ~rows:n ~cols:n
    ~len:(Array.length x);
  Vec.init (n * n) (fun idx ->
      let i = idx / n and j = idx mod n in
      0.5 *. (x.((i * n) + j) +. x.((j * n) + i)))
