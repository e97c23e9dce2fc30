(* Frequency-domain evaluation of the Volterra transfer functions
   H1(s), H2(s1,s2), H3(s1,s2,s3) of a QLDAE (paper eqs. 14a-14c,
   extended to multiple inputs and the cubic coupling).

   These are the *symmetric* transfer functions obtained by harmonic
   probing with the symmetrized G2/G3 stored in {!Qldae}:

     H1^a(s)        = (sI-G1)^-1 b_a
     H2^{ab}(s1,s2) = ((s1+s2)I-G1)^-1 [ G2(H1^a(s1) ⊗ H1^b(s2))
                      + (D1_a H1^b(s2) + D1_b H1^a(s1)) / 2 ]
     H3^{abc}       = ((s1+s2+s3)I-G1)^-1 [
                        (2/3) Σ_pairings G2(H1 ⊗ H2)
                      + (1/3) Σ_pairs    D1 H2
                      + G3 (H1^a(s1) ⊗ H1^b(s2) ⊗ H1^c(s3)) ]

   Evaluation is dense-complex (one LU per distinct frequency sum) and
   meant for validation and frequency-response studies, not for the
   moment pipeline (that is {!Assoc}). *)

open La

type t = {
  q : Qldae.t;
  cache : (Complex.t, Clu.t) Hashtbl.t;  (* resolvent LU cache by shift *)
}

let create q = { q; cache = Hashtbl.create 16 }

(* LU of (sigma I - G1), cached. *)
let resolvent t (sigma : Complex.t) =
  match Hashtbl.find_opt t.cache sigma with
  | Some lu -> lu
  | None ->
    let n = Qldae.dim t.q in
    let m = Cmat.add_diag (Cmat.scale { re = -1.0; im = 0.0 } (Cmat.of_real t.q.Qldae.g1)) sigma in
    ignore n;
    let lu = Clu.factor m in
    Hashtbl.add t.cache sigma lu;
    lu

let solve t sigma v = Clu.solve (resolvent t sigma) v

(* Input column indices must address an existing column of B. *)
let check_input ctx t i =
  Contract.require ctx
    (i >= 0 && i < Qldae.n_inputs t.q)
    "dimension mismatch"
    (Printf.sprintf "input index %d outside [0, %d)" i (Qldae.n_inputs t.q))

let h1 t ~input (s : Complex.t) : Cvec.t =
  check_input "Transfer.h1" t input;
  solve t s (Cvec.of_real (Qldae.b_col t.q input))

(* Complex application of a real matrix. *)
let apply_real (m : Mat.t) (v : Cvec.t) : Cvec.t =
  Cvec.make
    ~re:(Mat.mul_vec m (Cvec.real_part v))
    ~im:(Mat.mul_vec m (Cvec.imag_part v))

let h2 t ~inputs:(a, b) (s1 : Complex.t) (s2 : Complex.t) : Cvec.t =
  check_input "Transfer.h2" t a;
  check_input "Transfer.h2" t b;
  let q = t.q in
  let h1a = h1 t ~input:a s1 and h1b = h1 t ~input:b s2 in
  let rhs = Sptensor.apply_flat_complex q.Qldae.g2 (Cvec.kron h1a h1b) in
  let half = { Complex.re = 0.5; im = 0.0 } in
  if Qldae.has_d1 q then begin
    Cvec.axpy ~alpha:half (apply_real q.Qldae.d1.(a) h1b) rhs;
    Cvec.axpy ~alpha:half (apply_real q.Qldae.d1.(b) h1a) rhs
  end;
  solve t (Complex.add s1 s2) rhs

let h3 t ~inputs:(a, b, c) (s1 : Complex.t) (s2 : Complex.t) (s3 : Complex.t) :
    Cvec.t =
  check_input "Transfer.h3" t a;
  check_input "Transfer.h3" t b;
  check_input "Transfer.h3" t c;
  let q = t.q in
  let n = Qldae.dim q in
  let rhs = Cvec.create n in
  let two_thirds = { Complex.re = 2.0 /. 3.0; im = 0.0 } in
  let third = { Complex.re = 1.0 /. 3.0; im = 0.0 } in
  (* G2 (H1 ⊗ H2) over the three pairings *)
  if Qldae.has_g2 q then begin
    let add_pairing (i, si) (j, sj) (k, sk) =
      let h1i = h1 t ~input:i si in
      let h2jk = h2 t ~inputs:(j, k) sj sk in
      Cvec.axpy ~alpha:two_thirds
        (Sptensor.apply_flat_complex q.Qldae.g2 (Cvec.kron h1i h2jk))
        rhs
    in
    add_pairing (a, s1) (b, s2) (c, s3);
    add_pairing (b, s2) (a, s1) (c, s3);
    add_pairing (c, s3) (a, s1) (b, s2)
  end;
  (* D1 H2 over the three pairs *)
  if Qldae.has_d1 q then begin
    let add_pair (i, _si) (j, sj) (k, sk) =
      let h2jk = h2 t ~inputs:(j, k) sj sk in
      Cvec.axpy ~alpha:third (apply_real q.Qldae.d1.(i) h2jk) rhs
    in
    add_pair (a, s1) (b, s2) (c, s3);
    add_pair (b, s2) (a, s1) (c, s3);
    add_pair (c, s3) (a, s1) (b, s2)
  end;
  (* cubic term *)
  if Qldae.has_g3 q then begin
    let h1a = h1 t ~input:a s1
    and h1b = h1 t ~input:b s2
    and h1c = h1 t ~input:c s3 in
    Cvec.axpy
      ~alpha:{ Complex.re = 1.0; im = 0.0 }
      (Sptensor.apply_flat_complex q.Qldae.g3 (Cvec.kron (Cvec.kron h1a h1b) h1c))
      rhs
  end;
  solve t (Complex.add (Complex.add s1 s2) s3) rhs

(* Scalar (output-projected) transfer values cᵀ Hn. *)
let output_h1 t ~input s =
  Cvec.dot (Cvec.of_real (Mat.row t.q.Qldae.c 0)) (h1 t ~input s)
