(** Sparse Cholesky factorisation [P·H·Pᵀ = L·Lᵀ] of a symmetric
    positive definite matrix with a fixed sparsity pattern.

    The work is split the classical way.  {!analyze} runs once per
    pattern: it picks a fill-reducing minimum-degree ordering [P] and
    records the column patterns of [L] (the elimination graph of that
    ordering gives them directly).  {!factorize} then runs once per set
    of numeric values: a left-looking column Cholesky over the stored
    pattern, in place and without allocation.  The log-barrier solver
    ({!Barrier}) analyses its Newton-system pattern once per solve and
    refactorises at every Newton step. *)

type symbolic
(** Ordering and pattern of [L] for one sparsity pattern. *)

exception Not_positive_definite
(** A pivot was not strictly positive: the numeric values are not
    (numerically) positive definite. *)

val analyze : n:int -> int array array -> symbolic
(** [analyze ~n cliques] analyses the pattern of an [n]×[n] symmetric
    matrix whose possible nonzeros are the diagonal plus every pair
    [(i, j)] of indices drawn from one clique.  A matrix [Aᵀ W A] has
    one clique per row of [A] (the row's nonzero columns); a general
    symmetric pattern is given as two-element cliques.

    @raise Invalid_argument on an index outside [0 .. n−1]. *)

val perm : symbolic -> int array
(** [perm s] maps elimination position to original index: row and
    column [k] of [P·H·Pᵀ] are row and column [(perm s).(k)] of [H].
    A fresh copy. *)

val nnz : symbolic -> int
(** Stored entries of [L], diagonal included. *)

val slot : symbolic -> int -> int -> int
(** [slot s i j] is the storage slot of entry [(i, j)] (= [(j, i)]) of
    [H], in original indices, for {!add}.  Look slots up once per
    pattern, not per factorisation.

    @raise Not_found if [(i, j)] is outside the analysed pattern. *)

type t
(** Numeric factor storage for one {!symbolic}: the values of [L] plus
    the work vectors, allocated once. *)

val create : symbolic -> t
(** Zeroed storage. *)

val clear : t -> unit
(** Reset every stored value to zero, ready for a new assembly. *)

val add : t -> int -> float -> unit
(** [add t slot v] adds [v] to the entry at [slot] (see {!slot}).  Add
    each off-diagonal entry once: storage is the lower triangle. *)

val factorize : t -> unit
(** Overwrite the assembled lower triangle of [P·H·Pᵀ] with [L].

    @raise Not_positive_definite if a pivot is not positive; the
    storage must then be cleared and reassembled before reuse. *)

val solve : t -> float array -> float array
(** [solve t b] returns [x] with [H x = b], in original indices, after
    {!factorize}.  [b] is not modified. *)

val iter_l : t -> (int -> int -> float -> unit) -> unit
(** [iter_l t f] calls [f i j l_ij] for every stored entry of [L] after
    {!factorize}, in permuted indices ([i ≥ j]). *)
