(** Frequency-domain evaluation of the multivariate Volterra transfer
    functions [H1(s)], [H2(s1,s2)], [H3(s1,s2,s3)] of a QLDAE (paper
    eqs. 14a–14c, extended to multiple inputs and a cubic coupling).

    Dense-complex evaluation with cached resolvent factorizations —
    intended for validation and frequency-response studies; the moment
    pipeline is {!Assoc}. *)

open La

type t

val create : Qldae.t -> t

(** [H1^a(s) = (sI−G1)⁻¹ b_a]. *)
val h1 : t -> input:int -> Complex.t -> Cvec.t

(** Symmetric second-order transfer function for an input pair. *)
val h2 : t -> inputs:int * int -> Complex.t -> Complex.t -> Cvec.t

(** Symmetric third-order transfer function for an input triple. *)
val h3 :
  t -> inputs:int * int * int -> Complex.t -> Complex.t -> Complex.t -> Cvec.t

(** Output-projected scalar values [c₀ᵀ Hn]. *)
val output_h1 : t -> input:int -> Complex.t -> Complex.t
