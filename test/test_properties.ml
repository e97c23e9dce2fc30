(* Cross-module property-based tests (qcheck): scaling laws and
   structural invariants of the Volterra/MOR machinery on randomly
   generated systems. *)

open La

let gen_stable n =
  QCheck2.Gen.(
    array_size (return (n * n)) (float_bound_inclusive 1.0)
    |> map (fun data ->
           Mat.sub
             (Mat.init n n (fun i j -> 0.4 *. (data.((i * n) + j) -. 0.5)))
             (Mat.scale 1.5 (Mat.identity n))))

let gen_qldae n =
  QCheck2.Gen.(
    triple (gen_stable n)
      (array_size (return (n * n * n)) (float_bound_inclusive 1.0))
      (array_size (return n) (float_bound_inclusive 1.0))
    |> map (fun (g1, g2data, bdata) ->
           let g2 =
             Sptensor.of_dense ~arity:2 ~n_in:n
               (Mat.init n (n * n) (fun i j ->
                    0.25 *. (g2data.((i * n * n) + j) -. 0.5)))
           in
           let b = Mat.init n 1 (fun i _ -> bdata.(i) +. 0.1) in
           let c = Mat.init 1 n (fun _ _ -> 1.0) in
           Volterra.Qldae.make ~g2 ~g1 ~b ~c ()))

(* H2 associated moments are quadratic in the input vector: replacing b
   by beta*b scales every H2 moment by beta². *)
let prop_h2_moments_quadratic_in_b =
  QCheck2.Test.make ~name:"assoc: H2 moments quadratic in b" ~count:15
    QCheck2.Gen.(pair (gen_qldae 4) (float_range 0.3 2.0))
    (fun (q, beta) ->
      let scaled =
        Volterra.Qldae.make ~g2:q.Volterra.Qldae.g2 ~g1:q.Volterra.Qldae.g1
          ~b:(Mat.scale beta q.Volterra.Qldae.b)
          ~c:q.Volterra.Qldae.c ()
      in
      let m1 =
        Volterra.Assoc.h2_moments (Volterra.Assoc.create ~s0:0.5 q) ~k:2
      in
      let m2 =
        Volterra.Assoc.h2_moments (Volterra.Assoc.create ~s0:0.5 scaled) ~k:2
      in
      List.for_all2
        (fun a b -> Vec.dist2 (Vec.scale (beta *. beta) a) b < 1e-8 *. (1.0 +. Vec.norm2 b))
        m1 m2)

(* H3 associated moments are cubic in b (quadratic-system case, where H3
   arises from cascaded G2). *)
let prop_h3_moments_cubic_in_b =
  QCheck2.Test.make ~name:"assoc: H3 moments cubic in b" ~count:8
    QCheck2.Gen.(pair (gen_qldae 3) (float_range 0.5 1.5))
    (fun (q, beta) ->
      let scaled =
        Volterra.Qldae.make ~g2:q.Volterra.Qldae.g2 ~g1:q.Volterra.Qldae.g1
          ~b:(Mat.scale beta q.Volterra.Qldae.b)
          ~c:q.Volterra.Qldae.c ()
      in
      let m1 =
        Volterra.Assoc.h3_moments (Volterra.Assoc.create ~s0:0.5 q) ~k:2
      in
      let m2 =
        Volterra.Assoc.h3_moments (Volterra.Assoc.create ~s0:0.5 scaled) ~k:2
      in
      List.for_all2
        (fun a b ->
          Vec.dist2 (Vec.scale (beta ** 3.0) a) b < 1e-8 *. (1.0 +. Vec.norm2 b))
        m1 m2)

(* The spectrum of A ⊕ B is the set of pairwise eigenvalue sums. *)
let prop_kron_sum_spectrum =
  QCheck2.Test.make ~name:"kron: spec(A ⊕ B) = pairwise sums" ~count:15
    QCheck2.Gen.(pair (gen_stable 3) (gen_stable 2))
    (fun (a, b) ->
      let ea = Schur.eigenvalues (Schur.decompose a) in
      let eb = Schur.eigenvalues (Schur.decompose b) in
      let esum = Schur.eigenvalues (Schur.decompose (Kron.sum a b)) in
      let expected =
        Array.to_list ea
        |> List.concat_map (fun za ->
               Array.to_list eb |> List.map (fun zb -> Complex.add za zb))
      in
      (* match greedily *)
      let remaining = ref expected in
      Array.for_all
        (fun z ->
          match
            List.partition
              (fun w -> Complex.norm (Complex.sub z w) < 1e-6)
              !remaining
          with
          | close :: rest_close, rest ->
            remaining := rest_close @ rest;
            ignore close;
            true
          | [], _ -> false)
        esum)

(* Galerkin projection with a square orthogonal basis is a change of
   coordinates: the output transient is invariant. *)
let prop_projection_orthogonal_invariance =
  QCheck2.Test.make ~name:"mor: full-rank orthogonal projection preserves output"
    ~count:8 (gen_qldae 4) (fun q ->
      let rng = Random.State.make [| 5 |] in
      let v = Qr.orth_mat (List.init 4 (fun _ -> Mat.random_vec ~rng 4)) in
      if Mat.cols v < 4 then true
      else begin
        let rom = Volterra.Qldae.project q v in
        let input t = Vec.of_list [ 0.3 *. sin t ] in
        let s1 = Volterra.Qldae.simulate q ~input ~t0:0.0 ~t1:3.0 ~samples:4 in
        let s2 = Volterra.Qldae.simulate rom ~input ~t0:0.0 ~t1:3.0 ~samples:4 in
        let y1 = Volterra.Qldae.output q s1 and y2 = Volterra.Qldae.output rom s2 in
        Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-5) y1 y2
      end)

(* Quadratization exactness as a property over random ladder circuits. *)
let prop_quadratize_exact =
  QCheck2.Test.make ~name:"circuit: quadratization exact on random ladders"
    ~count:8
    QCheck2.Gen.(pair (int_range 3 7) (float_range 5.0 20.0))
    (fun (stages, alpha) ->
      let m = Circuit.Models.nltl ~stages ~alpha ~source:(`Voltage 1.0) () in
      let a = m.Circuit.Models.assembled in
      let q = Circuit.Models.qldae m in
      let input t = Vec.of_list [ 0.4 *. Float.exp (-0.5 *. t) ] in
      let raw_sys = Circuit.Netlist.to_ode_system a ~input in
      let raw =
        Ode.Rkf45.integrate raw_sys ~t0:0.0 ~t1:4.0
          ~x0:(Vec.create a.Circuit.Netlist.n_states)
          ~rtol:1e-9 ~atol:1e-12 ~samples:3 ()
      in
      let sol =
        Volterra.Qldae.simulate q ~input ~t0:0.0 ~t1:4.0 ~samples:3
          ~solver:(Volterra.Qldae.Rkf45 { rtol = 1e-9; atol = 1e-12 })
      in
      let lifted =
        Circuit.Quadratize.lift a raw.Ode.Types.states.(2)
      in
      Vec.dist2 lifted sol.Ode.Types.states.(2) < 1e-4)

(* Transfer-function H2 is bilinear in (G2 scale): doubling G2 doubles
   H2 (for a D1-free system). *)
let prop_h2_linear_in_g2 =
  QCheck2.Test.make ~name:"transfer: H2 linear in G2" ~count:10 (gen_qldae 4)
    (fun q ->
      let doubled =
        Volterra.Qldae.make
          ~g2:(Sptensor.scale 2.0 q.Volterra.Qldae.g2)
          ~g1:q.Volterra.Qldae.g1 ~b:q.Volterra.Qldae.b ~c:q.Volterra.Qldae.c ()
      in
      let s1 = { Complex.re = 0.2; im = 0.9 }
      and s2 = { Complex.re = -0.1; im = 1.3 } in
      let t1 = Volterra.Transfer.create q in
      let t2 = Volterra.Transfer.create doubled in
      let h1v = Volterra.Transfer.h2 t1 ~inputs:(0, 0) s1 s2 in
      let h2v = Volterra.Transfer.h2 t2 ~inputs:(0, 0) s1 s2 in
      Cvec.dist (Cvec.scale { Complex.re = 2.0; im = 0.0 } h1v) h2v
      < 1e-9 *. (1.0 +. Cvec.norm2 h2v))

(* ---- random systems through the full reduction pipeline ---- *)

(* The AT projection basis is orthonormal whatever stable system the
   generator throws at it (deflation keeps the Gram matrix at I even
   when random moment directions nearly coincide). *)
let prop_reduce_basis_orthonormal =
  QCheck2.Test.make ~name:"mor: reduce yields orthonormal basis on random QLDAEs"
    ~count:8 (gen_qldae 5) (fun q ->
      let r =
        Mor.Atmor.reduce ~s0:0.5
          ~orders:{ Mor.Atmor.k1 = 3; k2 = 2; k3 = 0 }
          q
      in
      let v = r.Mor.Atmor.basis in
      let g = Mat.mul (Mat.transpose v) v in
      let m = Mat.cols v in
      let ok = ref (m > 0) in
      for i = 0 to m - 1 do
        for j = 0 to m - 1 do
          let expect = if i = j then 1.0 else 0.0 in
          if Float.abs (Mat.get g i j -. expect) > 1e-8 then ok := false
        done
      done;
      !ok)

(* Moment matching is what the basis is for: at the expansion point the
   ROM's H1/H2 residuals against the full system vanish. *)
let prop_reduce_moments_match =
  QCheck2.Test.make ~name:"mor: moment-match residuals vanish on random QLDAEs"
    ~count:6 (gen_qldae 5) (fun q ->
      let r =
        Mor.Atmor.reduce ~s0:0.5
          ~orders:{ Mor.Atmor.k1 = 3; k2 = 2; k3 = 0 }
          q
      in
      let d =
        Mor.Romdiag.moment_residuals ~s0:0.5 ~full:q ~rom:r.Mor.Atmor.rom ()
      in
      let small = function None -> true | Some x -> x < 1e-6 in
      small d.Mor.Romdiag.h1 && small d.Mor.Romdiag.h2)

(* The associated-transform path (AT) and the multivariate path (NORM)
   match the same H2 moments, so at equal orders their ROMs agree at
   the expansion point on any random stable system. *)
let prop_at_vs_norm_equivalent =
  QCheck2.Test.make ~name:"mor: AT and NORM residuals agree on random QLDAEs"
    ~count:6 (gen_qldae 4) (fun q ->
      let orders = { Mor.Atmor.k1 = 3; k2 = 2; k3 = 0 } in
      let at = Mor.Atmor.reduce ~s0:0.5 ~orders q in
      let norm = Mor.Norm.reduce ~s0:0.5 ~orders q in
      let res rom =
        Mor.Romdiag.moment_residuals ~s0:0.5 ~full:q ~rom ()
      in
      let da = res at.Mor.Atmor.rom and dn = res norm.Mor.Atmor.rom in
      let both_small = function
        | Some a, Some b -> a < 1e-6 && b < 1e-6
        | _ -> true
      in
      both_small (da.Mor.Romdiag.h1, dn.Mor.Romdiag.h1)
      && both_small (da.Mor.Romdiag.h2, dn.Mor.Romdiag.h2))

(* ---- the compiled vector field ---- *)

(* A seeded random QLDAE with every coupling: dense G2 and G3, D1 on
   both of its 2 inputs; paired with its Galerkin ROM on a random
   q-dimensional orthonormal basis and a random evaluation point for
   each. *)
let gen_cubic_miso ~n ~q =
  let sizes = [ n * n; n * n * n; n * n * n * n; 2 * n * n; 2 * n; n; q * n; n; q ] in
  QCheck2.Gen.(
    array_size (return (List.fold_left ( + ) 0 sizes)) (float_bound_inclusive 1.0)
    |> map (fun data ->
           let at = ref 0 in
           let take k =
             let a = Array.map (fun v -> v -. 0.5) (Array.sub data !at k) in
             at := !at + k;
             a
           in
           let g1 =
             let a = take (n * n) in
             Mat.sub (Mat.init n n (fun i j -> 0.4 *. a.((i * n) + j))) (Mat.scale 1.5 (Mat.identity n))
           in
           let tensor arity k =
             let a = take (n * k) in
             Sptensor.of_dense ~arity ~n_in:n (Mat.init n k (fun i j -> 0.3 *. a.((i * k) + j)))
           in
           let g2 = tensor 2 (n * n) in
           let g3 = tensor 3 (n * n * n) in
           let d1 =
             let a = take (2 * n * n) in
             Array.init 2 (fun p -> Mat.init n n (fun i j -> 0.2 *. a.((p * n * n) + (i * n) + j)))
           in
           let b = let a = take (2 * n) in Mat.init n 2 (fun i p -> a.((i * 2) + p) +. 0.6) in
           let c = let a = take n in Mat.init 1 n (fun _ j -> a.(j)) in
           let full = Volterra.Qldae.make ~g2 ~g3 ~d1 ~g1 ~b ~c () in
           let basis =
             let a = take (q * n) in
             Qr.orth_mat (List.init q (fun j -> Vec.init n (fun i -> a.((j * n) + i))))
           in
           let rom = Volterra.Qldae.project full basis in
           ((full, take n), (rom, take q))))

let miso_input t = Vec.of_list [ sin t; 0.5 *. cos (2.0 *. t) ]

(* x' from the Sptensor contractions, the definition the compiled
   field must reproduce. *)
let reference_rhs (q : Volterra.Qldae.t) x u =
  let out = Mat.mul_vec q.g1 x in
  Vec.axpy ~alpha:1.0 (Sptensor.apply_kron q.g2 [| x; x |]) out;
  Vec.axpy ~alpha:1.0 (Sptensor.apply_kron q.g3 [| x; x; x |]) out;
  Array.iteri
    (fun i d -> Vec.axpy ~alpha:u.(i) (Vec.add (Mat.mul_vec d x) (Mat.col q.b i)) out)
    q.d1;
  out

let both_systems check ((full, xf), (rom, xr)) = check full xf && check rom xr

let prop_rhs_matches_contractions =
  QCheck2.Test.make ~name:"qldae: compiled rhs matches the Sptensor contractions" ~count:20
    (gen_cubic_miso ~n:4 ~q:3)
    (both_systems (fun q x ->
         let u = miso_input 0.7 in
         let r = reference_rhs q x u in
         Vec.dist2 (Volterra.Qldae.rhs q x u) r <= 1e-12 *. (1.0 +. Vec.norm2 r)))

let prop_jacobian_matches_fd =
  QCheck2.Test.make ~name:"qldae: jacobian matches central differences" ~count:20
    (gen_cubic_miso ~n:4 ~q:3)
    (both_systems (fun q x ->
         let u = miso_input 1.3 and n = Array.length x and h = 1e-6 in
         let j = Volterra.Qldae.jacobian q x u in
         let ok = ref true in
         for col = 0 to n - 1 do
           let shifted sign =
             let xs = Vec.copy x in
             xs.(col) <- xs.(col) +. (sign *. h);
             Volterra.Qldae.rhs q xs u
           in
           let fd = Vec.scale (0.5 /. h) (Vec.sub (shifted 1.0) (shifted (-1.0))) in
           for row = 0 to n - 1 do
             if Float.abs (Mat.get j row col -. fd.(row)) > 1e-6 *. (1.0 +. Mat.norm_fro j) then
               ok := false
           done
         done;
         !ok))

let prop_ode_system_bit_equal =
  QCheck2.Test.make ~name:"qldae: ode_system rhs is bit-equal to rhs" ~count:20
    (gen_cubic_miso ~n:4 ~q:3)
    (both_systems (fun q x ->
         let sys = Volterra.Qldae.ode_system q ~input:miso_input in
         (* repeated calls reuse the closure's scratch *)
         List.for_all
           (fun t ->
             let xt = Vec.scale (1.0 +. t) x in
             let a = sys.Ode.Types.rhs t xt and b = Volterra.Qldae.rhs q xt (miso_input t) in
             Array.for_all2
               (fun p r -> Int64.equal (Int64.bits_of_float p) (Int64.bits_of_float r))
               a b)
           [ 0.0; 0.4; 1.1; 0.4 ]))

(* A q = 27 ROM has 378 quadratic monomials, a scratch of 378 floats:
   past the minor heap's size limit, so a per-call scratch would show
   as direct major-heap words. *)
let test_rhs_no_major_alloc () =
  let q = 27 in
  let rng = Random.State.make [| 27 |] in
  let rand () = Random.State.float rng 1.0 -. 0.5 in
  let g2 = Sptensor.of_dense ~arity:2 ~n_in:q (Mat.init q (q * q) (fun _ _ -> 0.1 *. rand ())) in
  let g3 =
    Sptensor.create ~n_out:q ~n_in:q ~arity:3
      (List.init 200 (fun k -> (k mod q, Array.init 3 (fun _ -> Random.State.int rng q), rand ())))
  in
  let d1 = Array.init 2 (fun _ -> Mat.init q q (fun _ _ -> 0.1 *. rand ())) in
  let rom =
    Volterra.Qldae.make ~g2 ~g3 ~d1
      ~g1:(Mat.scale (-1.0) (Mat.identity q))
      ~b:(Mat.init q 2 (fun _ _ -> rand ()))
      ~c:(Mat.init 1 q (fun _ _ -> 1.0))
      ()
  in
  Alcotest.(check bool) "scratch is past the minor-heap limit" true
    (Polymap.n_monomials rom.Volterra.Qldae.field >= 378);
  let sys = Volterra.Qldae.ode_system rom ~input:miso_input in
  let x = Vec.init q (fun _ -> rand ()) in
  ignore (sys.Ode.Types.rhs 0.0 x);
  let p0 = Obs.Prof.take () in
  for k = 1 to 1000 do
    ignore (Sys.opaque_identity (sys.Ode.Types.rhs (float_of_int k *. 1e-3) x))
  done;
  let d = Obs.Prof.since p0 in
  Alcotest.(check (float 0.0)) "no direct major-heap words" 0.0
    (d.Obs.Prof.major_words -. d.Obs.Prof.promoted_words)

let suite =
  [
    ( "properties.cross_module",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_h2_moments_quadratic_in_b;
          prop_h3_moments_cubic_in_b;
          prop_kron_sum_spectrum;
          prop_projection_orthogonal_invariance;
          prop_quadratize_exact;
          prop_h2_linear_in_g2;
          prop_reduce_basis_orthonormal;
          prop_reduce_moments_match;
          prop_at_vs_norm_equivalent;
        ] );
    ( "properties.vector_field",
      List.map QCheck_alcotest.to_alcotest
        [ prop_rhs_matches_contractions; prop_jacobian_matches_fd; prop_ode_system_bit_equal ]
      @ [ Alcotest.test_case "1000 q=27 rhs calls, no major-heap words" `Quick test_rhs_no_major_alloc ] );
  ]
