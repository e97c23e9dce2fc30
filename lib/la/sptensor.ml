(* Sparse multilinear maps R^n x ... x R^n -> R^m.

   A value of arity k represents a matrix M of shape m x n^k acting on
   k-fold Kronecker products, stored as (row, (i_1..i_k), coeff)
   triplets. The QLDAE quadratic term G2 (arity 2) and cubic term G3
   (arity 3) of real circuits are extremely sparse; this representation
   keeps every contraction O(nnz) instead of O(m n^k). *)

type entry = { row : int; idx : int array; coeff : float }

type t = {
  n_out : int;
  n_in : int;
  arity : int;
  entries : entry array;
}

let create ~n_out ~n_in ~arity entries_list =
  let entries =
    Array.of_list
      (List.map
         (fun (row, idx, coeff) ->
           if row < 0 || row >= n_out then
             invalid_arg "Sptensor.create: row out of range";
           if Array.length idx <> arity then
             invalid_arg "Sptensor.create: index arity mismatch";
           Array.iter
             (fun i ->
               if i < 0 || i >= n_in then
                 invalid_arg "Sptensor.create: index out of range")
             idx;
           { row; idx = Array.copy idx; coeff })
         entries_list)
  in
  { n_out; n_in; arity; entries }

let zero ~n_out ~n_in ~arity = create ~n_out ~n_in ~arity []

let n_out t = t.n_out

let n_in t = t.n_in

let arity t = t.arity

let nnz t = Array.length t.entries

let is_zero t = nnz t = 0

let entries t =
  Array.to_list (Array.map (fun e -> (e.row, Array.copy e.idx, e.coeff)) t.entries)

let iter f t = Array.iter (fun e -> f e.row e.idx e.coeff) t.entries

let scale alpha t =
  {
    t with
    entries = Array.map (fun e -> { e with coeff = alpha *. e.coeff }) t.entries;
  }

let add a b =
  if a.n_out <> b.n_out || a.n_in <> b.n_in || a.arity <> b.arity then
    invalid_arg "Sptensor.add: shape mismatch";
  { a with entries = Array.append a.entries b.entries }

(* Flat multi-index of an entry: i_1 * n^{k-1} + ... + i_k. *)
let flat_index t (idx : int array) =
  let f = ref 0 in
  for m = 0 to t.arity - 1 do
    f := (!f * t.n_in) + idx.(m)
  done;
  !f

(* n^k, e.g. the length of a flat coordinate vector. *)
let rec pow n k = if k = 0 then 1 else n * pow n (k - 1)

let flat_len t = pow t.n_in t.arity

(* y = M x for a flat coordinate vector x of length n^k. *)
let apply_flat t (x : Vec.t) : Vec.t =
  Contract.require_len "Sptensor.apply_flat" ~expected:(flat_len t)
    ~actual:(Array.length x);
  Obs.Cost.charge Obs.Cost.Flops_tensor
    (2 * Array.length t.entries)
    ~read:(2 * Array.length t.entries)
    ~written:(t.n_out + Array.length t.entries);
  let out = Vec.create t.n_out in
  Array.iter
    (fun e -> out.(e.row) <- out.(e.row) +. (e.coeff *. x.(flat_index t e.idx)))
    t.entries;
  out

let apply_flat_complex t (x : Cvec.t) : Cvec.t =
  Contract.require_len "Sptensor.apply_flat_complex" ~expected:(flat_len t)
    ~actual:(Cvec.dim x);
  Obs.Cost.charge Obs.Cost.Flops_tensor
    (4 * Array.length t.entries)
    ~read:(3 * Array.length t.entries)
    ~written:((2 * t.n_out) + (2 * Array.length t.entries));
  let out = Cvec.create t.n_out in
  Array.iter
    (fun e ->
      let f = flat_index t e.idx in
      out.Cvec.re.(e.row) <- out.Cvec.re.(e.row) +. (e.coeff *. x.Cvec.re.(f));
      out.Cvec.im.(e.row) <- out.Cvec.im.(e.row) +. (e.coeff *. x.Cvec.im.(f)))
    t.entries;
  out

(* y = M (v_1 ⊗ v_2 ⊗ ... ⊗ v_k) without forming the Kronecker
   product. *)
let apply_kron t (vs : Vec.t array) : Vec.t =
  if Array.length vs <> t.arity then invalid_arg "Sptensor.apply_kron: arity";
  Array.iter
    (fun v ->
      if Array.length v <> t.n_in then invalid_arg "Sptensor.apply_kron: dim")
    vs;
  Obs.Cost.charge Obs.Cost.Flops_tensor
    ((t.arity + 1) * Array.length t.entries)
    ~read:((t.arity + 1) * Array.length t.entries)
    ~written:(t.n_out + Array.length t.entries);
  let out = Vec.create t.n_out in
  Array.iter
    (fun e ->
      let p = ref e.coeff in
      for m = 0 to t.arity - 1 do
        p := !p *. vs.(m).(e.idx.(m))
      done;
      out.(e.row) <- out.(e.row) +. !p)
    t.entries;
  out

(* Dense m x n^k matrix (small systems / tests only). *)
let to_dense t : Mat.t =
  let m = Mat.create t.n_out (flat_len t) in
  Array.iter (fun e -> Mat.add_to m e.row (flat_index t e.idx) e.coeff) t.entries;
  m

let of_dense ~arity ~n_in (m : Mat.t) : t =
  if Mat.cols m <> pow n_in arity then invalid_arg "Sptensor.of_dense: column count";
  let entries = ref [] in
  for r = 0 to Mat.rows m - 1 do
    for c = 0 to Mat.cols m - 1 do
      let x = Mat.get m r c in
      if Contract.nonzero x then begin
        let idx = Array.make arity 0 in
        let rest = ref c in
        for k = arity - 1 downto 0 do
          idx.(k) <- !rest mod n_in;
          rest := !rest / n_in
        done;
        entries := (r, idx, x) :: !entries
      end
    done
  done;
  create ~n_out:(Mat.rows m) ~n_in ~arity (List.rev !entries)

(* Project through a basis: W^T M (V ⊗ ... ⊗ V), where V is n x q and
   the test basis W (default V, Galerkin) has the same shape — the
   reduced-order coupling tensor, for an M symmetric in its k indices
   (Qldae keeps G2 and G3 so). Then the reduced value at a column tuple
   is the one at its sorted permutation, so only the sorted tuples
   a1 <= ... <= ak are contracted (one apply_kron and one W^T matvec
   each, about q^k/k! of them), and each value is written to every
   permutation of its tuple: the result is exactly symmetric. Entries
   come in to_dense's order (row, then flat column), exact zeros
   dropped. *)
let project ?w t (v : Mat.t) : t =
  let w = Option.value w ~default:v in
  if Mat.rows v <> t.n_in then invalid_arg "Sptensor.project: dim";
  if t.n_out <> t.n_in then
    invalid_arg "Sptensor.project: square systems only";
  Contract.require_dims "Sptensor.project: test basis" ~expected:(Mat.dims v)
    ~actual:(Mat.dims w);
  let q = Mat.cols v and k = t.arity in
  let cols = Array.init q (fun j -> Mat.col v j) in
  let ncols = pow q k in
  (* tuples.(c): the index tuple of flat column c; reduced.(c): the
     reduced column, shared with the sorted permutation of the tuple,
     whose flat index is the smallest and so comes first *)
  let tuples = Array.make ncols [||] in
  let reduced = Array.make ncols [||] in
  for c = 0 to ncols - 1 do
    let idx = Array.make k 0 in
    let rest = ref c in
    for m = k - 1 downto 0 do
      idx.(m) <- !rest mod q;
      rest := !rest / q
    done;
    tuples.(c) <- idx;
    let sorted = Array.copy idx in
    Array.sort Int.compare sorted;
    let sc = Array.fold_left (fun f i -> (f * q) + i) 0 sorted in
    reduced.(c) <-
      (if sc < c then reduced.(sc)
       else Mat.mul_vec_transpose w (apply_kron t (Array.map (fun j -> cols.(j)) idx)))
  done;
  let count = ref 0 in
  for r = 0 to q - 1 do
    for c = 0 to ncols - 1 do
      if Contract.nonzero reduced.(c).(r) then incr count
    done
  done;
  let entries = Array.make !count { row = 0; idx = [||]; coeff = 0.0 } in
  let e = ref 0 in
  for r = 0 to q - 1 do
    for c = 0 to ncols - 1 do
      let x = reduced.(c).(r) in
      if Contract.nonzero x then begin
        entries.(!e) <- { row = r; idx = tuples.(c); coeff = x };
        incr e
      end
    done
  done;
  { n_out = q; n_in = q; arity = k; entries }

(* Symmetrize: average coefficients over all permutations of each
   entry's indices. M x^⊗k is unchanged; contractions against
   non-symmetric arguments become the symmetrized ones used in the
   Volterra transfer functions. *)
let rec remove_first x = function
  | [] -> []
  | y :: tl -> if y = x then tl else y :: remove_first x tl

(* Permutations with multiplicity: a list of length k always yields k!
   results (duplicated indices give repeated permutations, which is
   exactly what distributes the coefficient correctly). *)
let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x -> List.map (fun p -> x :: p) (permutations (remove_first x l)))
      l

let symmetrize t =
  let fact = List.length (permutations (List.init t.arity Fun.id)) in
  let entries =
    Array.to_list t.entries
    |> List.concat_map (fun e ->
           let perms = permutations (Array.to_list e.idx) in
           List.map
             (fun p ->
               (e.row, Array.of_list p, e.coeff /. float_of_int fact))
             perms)
  in
  create ~n_out:t.n_out ~n_in:t.n_in ~arity:t.arity entries
