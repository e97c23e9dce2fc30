(* Homogeneous polynomial maps x ↦ Σ_k M_k x^⊗k on distinct monomials.

   A symmetrized Sptensor holds every ordering of each product x_i x_j
   (x_i x_j x_l) as a boxed record. Here entries are folded onto sorted
   monomials i_1 <= ... <= i_k and stored flat: monomial m multiplies
   x.(mono_var.(mono_ptr.(m) .. mono_ptr.(m+1)-1)), and row_ptr / col /
   coef is a CSR matrix over (row, monomial). *)

type t = { n_out : int; n_in : int; mono_ptr : int array; mono_var : int array;
           row_ptr : int array; col : int array; coef : float array }

let n_monomials t = Array.length t.mono_ptr - 1

let nnz t = Array.length t.coef

let scratch t = Vec.create (n_monomials t)

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
  { n_out; n_in; mono_ptr; mono_var = Array.concat (Array.to_list monos); row_ptr; col; coef }

(* out += Σ_k M_k x^⊗k: each monomial formed once into [scratch], then
   one CSR matvec. *)
let apply_add t ~(scratch : Vec.t) (x : Vec.t) (out : Vec.t) =
  Contract.require_len "Polymap.apply_add: x" ~expected:t.n_in ~actual:(Array.length x);
  Contract.require_len "Polymap.apply_add: out" ~expected:t.n_out ~actual:(Array.length out);
  Contract.require_len "Polymap.apply_add: scratch" ~expected:(n_monomials t)
    ~actual:(Array.length scratch);
  let mono_ptr = t.mono_ptr and mono_var = t.mono_var and n_mono = n_monomials t in
  Obs.Cost.charge Obs.Cost.Flops_tensor
    ((2 * nnz t) + Array.length mono_var - n_mono)
    ~read:((2 * nnz t) + Array.length mono_var)
    ~written:(t.n_out + n_mono);
  for m = 0 to n_mono - 1 do
    let p = ref x.(mono_var.(mono_ptr.(m))) in
    for s = mono_ptr.(m) + 1 to mono_ptr.(m + 1) - 1 do
      p := !p *. x.(mono_var.(s))
    done;
    scratch.(m) <- !p
  done;
  let row_ptr = t.row_ptr and col = t.col and coef = t.coef in
  for r = 0 to t.n_out - 1 do
    let acc = ref out.(r) in
    for z = row_ptr.(r) to row_ptr.(r + 1) - 1 do
      acc := !acc +. (coef.(z) *. scratch.(col.(z)))
    done;
    out.(r) <- !acc
  done

(* jac += d/dx Σ_k M_k x^⊗k: each stored c·x_{i_1}···x_{i_k} adds
   c·Π_{s'≠s} x_{i_s'} at column i_s, for every slot s. *)
let jacobian_add t (x : Vec.t) (jac : Mat.t) =
  Contract.require_len "Polymap.jacobian_add: x" ~expected:t.n_in ~actual:(Array.length x);
  Contract.require_dims "Polymap.jacobian_add: jac" ~expected:(t.n_out, t.n_in)
    ~actual:(Mat.dims jac);
  let d = Mat.data jac in
  for r = 0 to t.n_out - 1 do
    for z = t.row_ptr.(r) to t.row_ptr.(r + 1) - 1 do
      let lo = t.mono_ptr.(t.col.(z)) and hi = t.mono_ptr.(t.col.(z) + 1) - 1 in
      for s = lo to hi do
        let p = ref t.coef.(z) in
        for s' = lo to hi do
          if s' <> s then p := !p *. x.(t.mono_var.(s'))
        done;
        let at = (r * t.n_in) + t.mono_var.(s) in
        d.(at) <- d.(at) +. !p
      done
    done
  done
