(** Log-barrier interior-point method for linearly constrained convex
    programs with a separable objective.

    Solves [minimise f(x) subject to A x ≤ b] for smooth convex [f]
    whose Hessian is diagonal, with user-supplied gradient and Hessian
    diagonal.  This is the "geometric programming" engine the paper
    invokes (Section III, citing Boyd & Vandenberghe §4.5) for BI-CRIT
    CONTINUOUS on general DAGs: the energy objective [Σ wᵢ³/dᵢ²] is
    convex and separable in the durations and every
    precedence/deadline constraint is linear in the start times and
    durations, touching at most three variables.

    The method is the standard path-following scheme: minimise
    [t·f(x) − Σ log(bᵢ − aᵢx)] by damped Newton for increasing [t]
    until [m/t] (the duality-gap bound) drops below [tol].  [A] is
    sparse, so every Newton step costs O(nnz A) to evaluate and one
    sparse Cholesky ({!Sparse_chol}) of [t·∇²f + Aᵀ S⁻² A], whose
    pattern is analysed once per {!minimize}. *)

type objective = {
  f : float array -> float;  (** objective value *)
  grad : float array -> float array;  (** gradient *)
  hess_diag : float array -> float array;  (** diagonal of the Hessian *)
}

type row = { idx : int array; coef : float array }
(** One constraint row [aᵢ]: its nonzero columns [idx] (distinct) and
    their coefficients [coef], of equal length. *)

val row : (int * float) list -> row
(** [row [(j, a_ij); ...]] builds a row, keeping the listed order. *)

exception Not_strictly_feasible
(** Raised when the supplied starting point violates [A x < b]. *)

val minimize :
  ?tol:float ->
  ?t0:float ->
  ?mu:float ->
  ?newton_tol:float ->
  ?max_newton:int ->
  objective ->
  a:row array ->
  b:float array ->
  x0:float array ->
  float array
(** [minimize obj ~a ~b ~x0] returns an approximate minimiser.  [x0]
    must satisfy [a x0 < b] strictly.  [tol] is the target duality gap
    (default [1e-8]); [mu] the barrier growth factor (default [15.]);
    [t0] the initial barrier weight (default [1.]).

    @raise Not_strictly_feasible if [x0] is on or outside the
    boundary.
    @raise Invalid_argument if a row indexes outside [x0]. *)

val feasible_start : a:row array -> b:float array -> x0:float array -> bool
(** [feasible_start ~a ~b ~x0] checks strict feasibility, as required
    by {!minimize}. *)
