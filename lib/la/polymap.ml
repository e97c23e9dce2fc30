(* Homogeneous polynomial maps x ↦ Σ_k M_k x^⊗k, in one of two layouts.

   Compiled: a symmetrized Sptensor holds every ordering of each product
   x_i x_j (x_i x_j x_l) as a boxed record. Here entries are folded onto
   sorted monomials i_1 <= ... <= i_k and stored flat: monomial m
   multiplies x.(mono_var.(mono_ptr.(m) .. mono_ptr.(m+1)-1)), and
   row_ptr / col / coef is a CSR matrix over (row, monomial).

   Lifted: z ↦ Wᵀ P(V z) for a projected map, kept as the factors
   (wt = Wᵀ, v = V) around the unprojected map [inner], so a sparse
   full-model P is never densified onto q variables. *)

type compiled = { n_out : int; n_in : int; mono_ptr : int array; mono_var : int array;
                  row_ptr : int array; col : int array; coef : float array }

type t = Compiled of compiled | Lifted of { wt : Mat.t; v : Mat.t; inner : t }

(* Per-layout buffers: the monomials, or the lifted state V z, its image
   P(V z) and the inner map's own scratch. *)
type scratch = Monomials of Vec.t | Lift of { x : Vec.t; px : Vec.t; inner : scratch }

let mono_count c = Array.length c.mono_ptr - 1

(* The nominal Flops_tensor a compiled apply charges:
   2·nnz + Σ_m (deg m − 1). *)
let compiled_flops c = (2 * Array.length c.coef) + Array.length c.mono_var - mono_count c

let dims = function
  | Compiled c -> (c.n_out, c.n_in)
  | Lifted l -> (Mat.rows l.wt, Mat.cols l.v)

let rec n_monomials = function
  | Compiled c -> mono_count c
  | Lifted l -> n_monomials l.inner

let rec nnz = function Compiled c -> Array.length c.coef | Lifted l -> nnz l.inner

let rec scratch = function
  | Compiled c -> Monomials (Vec.create (mono_count c))
  | Lifted l ->
    let n = Mat.rows l.v in
    Lift { x = Vec.create n; px = Vec.create n; inner = scratch l.inner }

(* The nominal Flops_tensor one apply_add charges; lifted, 4·n·q for the
   lift and the restriction plus the inner map's charge. *)
let rec flops = function
  | Compiled c -> compiled_flops c
  | Lifted l -> (4 * Mat.rows l.v * Mat.cols l.v) + flops l.inner

(* Key of an index tuple: its indices, insertion-sorted into [sorted],
   as the digits 1..n of a base-(n+1) number; no digit is 0, so the
   digit count (the degree) is implicit and degrees never collide. *)
let monomial_key ~n (idx : int array) (sorted : int array) =
  let key = ref 0 in
  for s = 0 to Array.length idx - 1 do
    let v = idx.(s) and j = ref (s - 1) in
    while !j >= 0 && sorted.(!j) > v do
      sorted.(!j + 1) <- sorted.(!j);
      decr j
    done;
    sorted.(!j + 1) <- v
  done;
  for s = 0 to Array.length sorted - 1 do
    key := (!key * (n + 1)) + sorted.(s) + 1
  done;
  !key

(* Inverse of [monomial_key]. *)
let monomial_vars ~n key =
  let rec digits k acc = if k = 0 then acc else digits (k / (n + 1)) ((k mod (n + 1)) - 1 :: acc) in
  Array.of_list (digits key [])

(* Stable LSD radix sort of non-negative [keys] carrying [vals], 11 bits
   a pass; the inputs serve as scratch. *)
let radix_sort keys vals =
  let len = Array.length keys and mask = 2047 and top = Array.fold_left max 0 keys in
  let count = Array.make (mask + 2) 0 in
  let rec pass shift keys vals keys' vals' =
    if top lsr shift = 0 then (keys, vals)
    else begin
      Array.fill count 0 (mask + 2) 0;
      Array.iter (fun k -> let d = ((k lsr shift) land mask) + 1 in count.(d) <- count.(d) + 1) keys;
      for d = 1 to mask + 1 do
        count.(d) <- count.(d) + count.(d - 1)
      done;
      for i = 0 to len - 1 do
        let d = (keys.(i) lsr shift) land mask in
        keys'.(count.(d)) <- keys.(i);
        vals'.(count.(d)) <- vals.(i);
        count.(d) <- count.(d) + 1
      done;
      pass (shift + 11) keys' vals' keys vals
    end
  in
  pass 0 keys vals (Array.make len 0) (Array.make len 0.0)

let compile (terms : Sptensor.t list) : t =
  let first = match terms with t :: _ -> t | [] -> invalid_arg "Polymap.compile: no terms" in
  let n_out = Sptensor.n_out first and n_in = Sptensor.n_in first in
  let total = List.fold_left (fun a t -> a + Sptensor.nnz t) 0 terms in
  let key = Array.make total 0 and value = Array.make total 0.0 and e = ref 0 in
  List.iter
    (fun t ->
      Contract.require_dims "Polymap.compile: term shape" ~expected:(n_out, n_in)
        ~actual:(Sptensor.n_out t, Sptensor.n_in t);
      (* sort keys (monomial, row) stay below n_out · (n+1)^k *)
      if float_of_int n_out *. (float_of_int (n_in + 1) ** float_of_int (Sptensor.arity t))
         >= float_of_int max_int then invalid_arg "Polymap.compile: keys overflow";
      let sorted = Array.make (Sptensor.arity t) 0 in
      Sptensor.iter
        (fun row idx c ->
          key.(!e) <- (monomial_key ~n:n_in idx sorted * n_out) + row;
          value.(!e) <- c;
          incr e)
        t)
    terms;
  (* Runs of equal keys are summed in entry order, in place; sums that
     cancel exactly are dropped. Monomial ids follow key order. *)
  let key, value = radix_sort key value in
  let nz = ref 0 and monos = ref [] and i = ref 0 in
  let mono z = key.(z) / n_out in
  while !i < total do
    let k = key.(!i) and sum = ref 0.0 in
    while !i < total && key.(!i) = k do
      sum := !sum +. value.(!i);
      incr i
    done;
    if Contract.nonzero !sum then begin
      if !nz = 0 || k / n_out <> mono (!nz - 1) then
        monos := monomial_vars ~n:n_in (k / n_out) :: !monos;
      key.(!nz) <- k;
      value.(!nz) <- !sum;
      incr nz
    end
  done;
  let monos = Array.of_list (List.rev !monos) in
  let mono_ptr = Array.make (Array.length monos + 1) 0 in
  Array.iteri (fun m vars -> mono_ptr.(m + 1) <- mono_ptr.(m) + Array.length vars) monos;
  (* CSR by a counting sort on rows, stable so rows keep monomial order *)
  let row_ptr = Array.make (n_out + 1) 0 in
  for z = 0 to !nz - 1 do
    let r = (key.(z) mod n_out) + 1 in
    row_ptr.(r) <- row_ptr.(r) + 1
  done;
  for r = 1 to n_out do
    row_ptr.(r) <- row_ptr.(r) + row_ptr.(r - 1)
  done;
  let fill = Array.sub row_ptr 0 n_out and id = ref (-1) in
  let col = Array.make !nz 0 and coef = Array.make !nz 0.0 in
  for z = 0 to !nz - 1 do
    if z = 0 || mono z <> mono (z - 1) then incr id;
    let r = key.(z) mod n_out in
    col.(fill.(r)) <- !id;
    coef.(fill.(r)) <- value.(z);
    fill.(r) <- fill.(r) + 1
  done;
  Compiled
    { n_out; n_in; mono_ptr; mono_var = Array.concat (Array.to_list monos); row_ptr; col; coef }

(* Number of degree-k monomials in q variables, C(q+k-1, k). *)
let monomials_of_degree ~q k =
  let rec go i acc = if i > k then acc else go (i + 1) (acc * (q + i - 1) / i) in
  go 1 1

(* z ↦ Wᵀ P(V z): lifted when its nominal apply cost undercuts that of
   the projected [terms] compiled densely onto q variables, where every
   degree-k monomial is stored in every row:
   Σ_k (2·q + k − 1)·C(q+k-1, k) over the nonzero terms. Both costs are
   functions of the dimensions and the inner map's structure, never of
   values; ties go to compiled. *)
let project ~(wt : Mat.t) ~(v : Mat.t) (inner : t) (terms : Sptensor.t list) : t =
  let n = Mat.rows v and q = Mat.cols v in
  Contract.require_dims "Polymap.project: Wᵀ" ~expected:(q, n) ~actual:(Mat.dims wt);
  Contract.require_dims "Polymap.project: inner map" ~expected:(n, n) ~actual:(dims inner);
  let lifted = Lifted { wt; v; inner } in
  let compiled_flops =
    List.fold_left
      (fun acc g ->
        if Sptensor.is_zero g then acc
        else
          let k = Sptensor.arity g in
          acc + (((2 * q) + k - 1) * monomials_of_degree ~q k))
      0 terms
  in
  if flops lifted < compiled_flops then lifted else compile terms

(* out += Σ_k M_k x^⊗k: each monomial formed once into [scratch], then
   one CSR matvec. *)
let compiled_apply_add c (scratch : Vec.t) (x : Vec.t) (out : Vec.t) =
  let mono_ptr = c.mono_ptr and mono_var = c.mono_var and n_mono = mono_count c in
  Contract.require_len "Polymap.apply_add: x" ~expected:c.n_in ~actual:(Array.length x);
  Contract.require_len "Polymap.apply_add: out" ~expected:c.n_out ~actual:(Array.length out);
  Contract.require_len "Polymap.apply_add: scratch" ~expected:n_mono
    ~actual:(Array.length scratch);
  Obs.Cost.charge Obs.Cost.Flops_tensor (compiled_flops c)
    ~read:((2 * Array.length c.coef) + Array.length mono_var)
    ~written:(c.n_out + n_mono);
  for m = 0 to n_mono - 1 do
    let p = ref x.(mono_var.(mono_ptr.(m))) in
    for s = mono_ptr.(m) + 1 to mono_ptr.(m + 1) - 1 do
      p := !p *. x.(mono_var.(s))
    done;
    scratch.(m) <- !p
  done;
  let row_ptr = c.row_ptr and col = c.col and coef = c.coef in
  for r = 0 to c.n_out - 1 do
    let acc = ref out.(r) in
    for z = row_ptr.(r) to row_ptr.(r + 1) - 1 do
      acc := !acc +. (coef.(z) *. scratch.(col.(z)))
    done;
    out.(r) <- !acc
  done

(* x = V z, into [x]. *)
let lift (v : Mat.t) (z : Vec.t) (x : Vec.t) =
  let vd = Mat.data v and q = Mat.cols v in
  for r = 0 to Mat.rows v - 1 do
    let acc = ref 0.0 in
    for j = 0 to q - 1 do
      acc := !acc +. (vd.((r * q) + j) *. z.(j))
    done;
    x.(r) <- !acc
  done

let rec apply_add t ~scratch (x : Vec.t) (out : Vec.t) =
  match (t, scratch) with
  | Compiled c, Monomials s -> compiled_apply_add c s x out
  | Lifted l, Lift s ->
    let n = Mat.rows l.v and q = Mat.cols l.v in
    Contract.require_len "Polymap.apply_add: z" ~expected:q ~actual:(Array.length x);
    Contract.require_len "Polymap.apply_add: out" ~expected:q ~actual:(Array.length out);
    (* the lift V z and the restriction Wᵀ P; the inner apply charges
       itself *)
    Obs.Cost.charge Obs.Cost.Flops_tensor (4 * n * q)
      ~read:((2 * n * q) + n + q) ~written:((2 * n) + q);
    lift l.v x s.x;
    Array.fill s.px 0 n 0.0;
    apply_add l.inner ~scratch:s.inner s.x s.px;
    let wd = Mat.data l.wt in
    for i = 0 to q - 1 do
      let acc = ref out.(i) in
      for r = 0 to n - 1 do
        acc := !acc +. (wd.((i * n) + r) *. s.px.(r))
      done;
      out.(i) <- !acc
    done
  | _ -> invalid_arg "Polymap.apply_add: scratch of another layout"

(* jac += d/dx Σ_k M_k x^⊗k: each stored c·x_{i_1}···x_{i_k} adds
   c·Π_{s'≠s} x_{i_s'} at column i_s, for every slot s. Lifted, jac +=
   Wᵀ (J_inner(V z) V): the inner Jacobian times V a row at a time,
   skipping its zeros, each live row spread over a column of Wᵀ. *)
let rec jacobian_add t (x : Vec.t) (jac : Mat.t) =
  match t with
  | Compiled c ->
    Contract.require_len "Polymap.jacobian_add: x" ~expected:c.n_in ~actual:(Array.length x);
    Contract.require_dims "Polymap.jacobian_add: jac" ~expected:(c.n_out, c.n_in)
      ~actual:(Mat.dims jac);
    let d = Mat.data jac in
    for r = 0 to c.n_out - 1 do
      for z = c.row_ptr.(r) to c.row_ptr.(r + 1) - 1 do
        let lo = c.mono_ptr.(c.col.(z)) and hi = c.mono_ptr.(c.col.(z) + 1) - 1 in
        for s = lo to hi do
          let p = ref c.coef.(z) in
          for s' = lo to hi do
            if s' <> s then p := !p *. x.(c.mono_var.(s'))
          done;
          let at = (r * c.n_in) + c.mono_var.(s) in
          d.(at) <- d.(at) +. !p
        done
      done
    done
  | Lifted l ->
    let n = Mat.rows l.v and q = Mat.cols l.v in
    Contract.require_len "Polymap.jacobian_add: z" ~expected:q ~actual:(Array.length x);
    Contract.require_dims "Polymap.jacobian_add: jac" ~expected:(q, q) ~actual:(Mat.dims jac);
    let xi = Vec.create n in
    lift l.v x xi;
    let ji = Mat.create n n in
    jacobian_add l.inner xi ji;
    let jd = Mat.data ji and vd = Mat.data l.v and wd = Mat.data l.wt and d = Mat.data jac in
    let row = Vec.create q in
    for r = 0 to n - 1 do
      Array.fill row 0 q 0.0;
      let live = ref false in
      for j = 0 to n - 1 do
        let a = jd.((r * n) + j) in
        if Contract.nonzero a then begin
          live := true;
          for k = 0 to q - 1 do
            row.(k) <- row.(k) +. (a *. vd.((j * q) + k))
          done
        end
      done;
      if !live then
        for i = 0 to q - 1 do
          let w = wd.((i * n) + r) in
          for k = 0 to q - 1 do
            d.((i * q) + k) <- d.((i * q) + k) +. (w *. row.(k))
          done
        done
    done
