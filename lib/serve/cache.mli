(** Structural solution cache.

    One bounded store holding three kinds of entry, each under its own
    key constructor so kinds never collide.  Keys are full encodings
    (the request line itself, or {!Canon} encodings), so key equality
    is structural equality — never a hash collision:

    - {b line}: keyed by the byte-exact request line; stores the
      outcome in the request's own labels.  An identical repeat is
      answered without parsing the instance into a mapping or
      canonicalizing it.
    - {b exact}: keyed by [exact_key]; stores the complete outcome
      (solved payload in canonical task order, or the infeasible /
      rejected verdict).  A hit is answered by permuting the cached
      speeds and re-executed tasks into the request's labeling —
      energy and makespan are label-invariant scalars, so no re-solve
      and no schedule reconstruction happens.
    - {b scaled}: keyed by [scaled_key] (CONTINUOUS, no reliability);
      stores the canonical-order optimal speeds together with the
      cached instance's total work [W₀] and deadline [D₀].  An entry
      is written only when the cached solution is {e exact} and
      strictly {e interior} to its [fmin]/[fmax] bounds: interiority
      means the bound multipliers are zero, so the cached point is the
      optimum of the unbounded convex program, which is
      scale-covariant — scaling work by [c] and deadline by [d] maps
      the optimum to speeds [×c/d] (energy [×c³/d²], the D⁻² law
      checked by escheck's deadline-scaling relation).  At lookup time
      the rescaled speeds are re-validated ({!Validate.check} against
      the request's own deadline, bounds and model); if the rescaled
      point is admissible it is optimal for the request by the same
      convexity argument, otherwise the request falls through to a
      cold solve.

    Only deterministic outcomes are stored: [Shed] and [Over_budget]
    depend on load and are never cached.  All entries share one
    capacity and one FIFO queue: the oldest insertion is evicted
    first, whatever its kind.  The cache is single-domain state: the
    server does all lookups and inserts on the coordinating thread,
    never inside pool workers. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the number of entries in total, all kinds
    together (default 4096); the oldest insertion is evicted first. *)

type found = {
  status : Protocol.status;
  disposition : Protocol.disposition;  (** [Hit] or [Rescale_hit] *)
}

val lookup :
  t ->
  inst:Protocol.instance ->
  order:Dag.task list array ->
  canon:Canon.t ->
  found option
(** Exact entry first, then the scaled entry.  [None] means cold: no
    entry, or a scaled entry whose rescaling failed re-validation.
    Total — internal schedule reconstruction failures count as misses.
    Maintains the [serve.cache.{hit,miss,rescale_hit,rescale_reject}]
    counters. *)

val insert :
  t -> inst:Protocol.instance -> canon:Canon.t -> Protocol.status -> unit
(** Record a cold outcome.  [Solved], [Infeasible] and [Rejected] make
    an exact entry; [Solved] additionally makes a scaled entry when
    eligible (see above).  Maintains [serve.cache.{insert,evict}]. *)

val find_line : t -> string -> Protocol.status option
(** The outcome recorded for this byte-exact request line, if any.
    Counts [serve.cache.verbatim_hit] on a hit; a line miss counts
    nothing (the canonical {!lookup} that follows does). *)

val add_line : t -> string -> Protocol.status -> unit
(** Record a cold outcome under its request line, in the request's
    labels.  Maintains [serve.cache.{insert,evict}]. *)
