type objective = {
  f : float array -> float;
  grad : float array -> float array;
  hess_diag : float array -> float array;
}

type row = { idx : int array; coef : float array }

let row entries =
  { idx = Array.of_list (List.map fst entries); coef = Array.of_list (List.map snd entries) }

exception Not_strictly_feasible

module Obs = Es_obs.Obs

let c_centering = Obs.counter "barrier_centering_steps"
let c_newton = Obs.counter "barrier_newton_iters"
let c_not_pd = Obs.counter "barrier_not_pd"
let t_minimize = Obs.timer "barrier_minimize"
let t_factor = Obs.timer "barrier_assemble_factor"
let t_line_search = Obs.timer "barrier_line_search"

(* s = b - A x, written into [s]: O(nnz A). *)
let slacks_into s ~a ~b x =
  for i = 0 to Array.length a - 1 do
    let r = a.(i) in
    let acc = ref 0. in
    for p = 0 to Array.length r.idx - 1 do
      acc := !acc +. (r.coef.(p) *. x.(r.idx.(p)))
    done;
    s.(i) <- b.(i) -. !acc
  done

let feasible_start ~a ~b ~x0 =
  let s = Array.make (Array.length a) 0. in
  slacks_into s ~a ~b x0;
  Array.for_all (fun v -> v > 0.) s

(* The Newton system of one solve: the pattern of
   t ∇²f + Aᵀ S⁻² A (diagonal plus one clique per row) is analysed
   once, and each row's clique entries are resolved to factor slots
   once, so a Newton step assembles by slot and refactorises in place.
   [pair_slot] holds, row after row, the slots of (idx p, idx q) for
   q ≤ p, in the order [assemble_factor] visits them. *)
type system = {
  a : row array;
  b : float array;
  fac : Sparse_chol.t;
  diag_slot : int array;
  pair_slot : int array;
  s : float array; (* slacks *)
  at_inv : float array; (* Aᵀ S⁻¹ 1 *)
  cand : float array; (* line-search candidate *)
}

let system ~a ~b ~n =
  let sym = Sparse_chol.analyze ~n (Array.map (fun r -> r.idx) a) in
  let pairs = Array.fold_left (fun acc r -> acc + Array.length r.idx * (Array.length r.idx + 1) / 2) 0 a in
  let pair_slot = Array.make pairs 0 in
  let o = ref 0 in
  Array.iter
    (fun r ->
      Array.iteri
        (fun p jp ->
          for q = 0 to p do
            pair_slot.(!o) <- Sparse_chol.slot sym jp r.idx.(q);
            incr o
          done)
        r.idx)
    a;
  {
    a;
    b;
    fac = Sparse_chol.create sym;
    diag_slot = Array.init n (fun i -> Sparse_chol.slot sym i i);
    pair_slot;
    s = Array.make (Array.length a) 0.;
    at_inv = Array.make n 0.;
    cand = Array.make n 0.;
  }

(* Barrier-augmented value at x for weight t:
   phi(x) = t f(x) - sum_i log s_i with s = b - A x. *)
let barrier_value sys obj ~t x =
  let s = sys.s in
  slacks_into s ~a:sys.a ~b:sys.b x;
  if Array.exists (fun v -> v <= 0.) s then infinity
  else begin
    let logsum = ref 0. in
    for i = 0 to Array.length s - 1 do
      logsum := !logsum +. log s.(i)
    done;
    (t *. obj.f x) -. !logsum
  end

(* grad = t grad_f + A^T (1/s), leaving the slacks at x in [sys.s]. *)
let barrier_grad sys obj ~t x =
  let s = sys.s and at_inv = sys.at_inv in
  slacks_into s ~a:sys.a ~b:sys.b x;
  Array.fill at_inv 0 (Array.length at_inv) 0.;
  for i = 0 to Array.length sys.a - 1 do
    let r = sys.a.(i) in
    let inv = 1. /. s.(i) in
    for p = 0 to Array.length r.idx - 1 do
      let j = r.idx.(p) in
      at_inv.(j) <- at_inv.(j) +. (inv *. r.coef.(p))
    done
  done;
  let gf = obj.grad x in
  let g = Array.make (Array.length gf) 0. in
  for j = 0 to Array.length g - 1 do
    g.(j) <- (t *. gf.(j)) +. at_inv.(j)
  done;
  g

(* Assemble hess = t hess_f + A^T diag(1/s²) A + 1e-12 I from the
   slacks left by [barrier_grad] and factor it in place.  The 1e-12
   keeps the factorisation happy when f is flat along some direction
   inside the polytope. *)
let assemble_factor sys obj ~t x =
  let fac = sys.fac in
  Sparse_chol.clear fac;
  let hf = obj.hess_diag x in
  for i = 0 to Array.length hf - 1 do
    Sparse_chol.add fac sys.diag_slot.(i) (t *. hf.(i))
  done;
  let o = ref 0 in
  for i = 0 to Array.length sys.a - 1 do
    let r = sys.a.(i) in
    let w = 1. /. (sys.s.(i) *. sys.s.(i)) in
    for p = 0 to Array.length r.idx - 1 do
      let wcp = w *. r.coef.(p) in
      for q = 0 to p do
        Sparse_chol.add fac sys.pair_slot.(!o) (wcp *. r.coef.(q));
        incr o
      done
    done
  done;
  Array.iter (fun sl -> Sparse_chol.add fac sl 1e-12) sys.diag_slot;
  Sparse_chol.factorize fac

(* Damped Newton with backtracking on the barrier function, updating
   [x] in place; stops when the Newton decrement is small. *)
let newton sys obj ~t ~tol ~max_iters x =
  let n = Array.length x in
  let cand = sys.cand in
  let continue = ref true in
  let iters = ref 0 in
  while !continue && !iters < max_iters do
    incr iters;
    Obs.incr c_newton;
    let g = barrier_grad sys obj ~t x in
    let step =
      Obs.time t_factor @@ fun () ->
      match assemble_factor sys obj ~t x with
      | () -> Sparse_chol.solve sys.fac (Array.map Float.neg g)
      | exception Sparse_chol.Not_positive_definite ->
        Obs.incr c_not_pd;
        Array.map (fun v -> -1e-6 *. v) g
    in
    let decrement = ref 0. in
    for i = 0 to n - 1 do
      decrement := !decrement +. (g.(i) *. step.(i))
    done;
    let decrement = -. !decrement in
    if decrement /. 2. <= tol then continue := false
    else begin
      Obs.time t_line_search @@ fun () ->
      (* backtracking line search, alpha=0.25, beta=0.5 *)
      let phi0 = barrier_value sys obj ~t x in
      let rec search stepsize k =
        if k > 60 then false
        else begin
          for i = 0 to n - 1 do
            cand.(i) <- x.(i) +. (stepsize *. step.(i))
          done;
          let phi = barrier_value sys obj ~t cand in
          if phi <= phi0 -. (0.25 *. stepsize *. decrement) then true
          else search (stepsize *. 0.5) (k + 1)
        end
      in
      if search 1. 0 then Array.blit cand 0 x 0 n else continue := false
    end
  done

let minimize ?(tol = 1e-8) ?(t0 = 1.) ?(mu = 15.) ?(newton_tol = 1e-10)
    ?(max_newton = 80) obj ~a ~b ~x0 =
  if not (feasible_start ~a ~b ~x0) then raise Not_strictly_feasible;
  Obs.time t_minimize @@ fun () ->
  let sys = system ~a ~b ~n:(Array.length x0) in
  let m = Array.length a in
  let x = Array.copy x0 in
  let t = ref t0 in
  let gap () = float_of_int m /. !t in
  while gap () > tol do
    Obs.incr c_centering;
    newton sys obj ~t:!t ~tol:newton_tol ~max_iters:max_newton x;
    t := !t *. mu
  done;
  Obs.incr c_centering;
  newton sys obj ~t:!t ~tol:newton_tol ~max_iters:max_newton x;
  x
