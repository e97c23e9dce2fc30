(** Bartels–Stewart for the paper's eq. (18) decoupling: solving
    [G1 Π + G2 = Π (⊕² G1)] splits the second-order associated transfer
    function [H2(s)] into two parallel LTI branches. The right-hand
    operator is [n²×n²], but its real Schur form is inherited from
    [G1]'s, so the solve costs [O(n⁴)] in real arithmetic, runs its
    column tuples (pairs of [G1]'s diagonal blocks, at most 4 columns)
    through {!Ksolve.tri_solve_tuple}, and never forms the big
    operator. *)

(** [solve_pi_schur ~ks ~g2] solves [G1 Π + G2 = Π (⊕² G1)] for
    [Π ∈ R^(n×n²)], on the real Schur form of [G1] held by [ks] and
    [G2] as a dense [n×n²] matrix. Solvability needs
    [λ_i(G1) ≠ λ_j(G1) + λ_k(G1)] for all triples — always true for
    stable [G1] (paper §2.3); a triple within [1e-10·max|λ|] raises
    [Ksolve.Near_singular]. *)
val solve_pi_schur : ks:Ksolve.t -> g2:Mat.t -> Mat.t
