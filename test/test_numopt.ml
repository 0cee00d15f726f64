(* Tests for scalar search and the log-barrier solver, cross-checked
   against analytic optima of small convex programs. *)

module Scalar = Es_numopt.Scalar
module Barrier = Es_numopt.Barrier

let check_float tol = Alcotest.(check (float tol))

let test_bisect_root () =
  let r = Scalar.bisect ?max_iters:None ~tol:1e-14 ~f:(fun x -> (x *. x) -. 2.) ~lo:0. ~hi:2. in
  check_float 1e-10 "sqrt 2" (sqrt 2.) r

let test_bisect_endpoint_roots () =
  check_float 1e-12 "root at lo" 1.
    (Scalar.bisect ?max_iters:None ?tol:None ~f:(fun x -> x -. 1.) ~lo:1. ~hi:5.);
  check_float 1e-12 "root at hi" 5.
    (Scalar.bisect ?max_iters:None ?tol:None ~f:(fun x -> x -. 5.) ~lo:1. ~hi:5.)

let test_bisect_sign_check () =
  Alcotest.check_raises "same sign"
    (Invalid_argument "Scalar.bisect: same sign at both endpoints") (fun () ->
      ignore (Scalar.bisect ?max_iters:None ?tol:None ~f:(fun x -> x +. 10.) ~lo:0. ~hi:1.))

let test_root_monotone_clamps () =
  (* root of x - 10 on [0, 1] lies above: clamp to hi *)
  check_float 1e-12 "clamps high" 1.
    (Scalar.root_monotone ?tol:None ~f:(fun x -> x -. 10.) ~lo:0. ~hi:1.);
  check_float 1e-12 "clamps low" 0.
    (Scalar.root_monotone ?tol:None ~f:(fun x -> x +. 10.) ~lo:0. ~hi:1.)

let test_golden_quadratic () =
  let x = Scalar.golden_min ?max_iters:None ~tol:1e-12 ~f:(fun x -> (x -. 1.7) ** 2.) ~lo:0. ~hi:5. in
  check_float 1e-6 "argmin" 1.7 x

let test_golden_asymmetric () =
  (* minimise x + 4/x on [0.5, 10]: argmin = 2 *)
  let x = Scalar.golden_min ?max_iters:None ~tol:1e-12 ~f:(fun x -> x +. (4. /. x)) ~lo:0.5 ~hi:10. in
  check_float 1e-5 "argmin" 2. x

let test_newton () =
  let r = Scalar.newton_1d ?max_iters:None ~tol:1e-14 ~f:(fun x -> (x *. x *. x) -. 8.)
      ~f':(fun x -> 3. *. x *. x) ~x0:3. in
  check_float 1e-9 "cbrt 8" 2. r

(* Barrier: min (x-2)² + (y-3)² s.t. x + y <= 3, x,y >= 0.
   Unconstrained optimum (2,3) is cut by the line; the projection onto
   x + y = 3 is (1, 2). *)
let quadratic_objective () =
  {
    Barrier.f = (fun x -> ((x.(0) -. 2.) ** 2.) +. ((x.(1) -. 3.) ** 2.));
    grad = (fun x -> [| 2. *. (x.(0) -. 2.); 2. *. (x.(1) -. 3.) |]);
    hess_diag = (fun _ -> [| 2.; 2. |]);
  }

let simplex_region =
  ( [| Barrier.row [ (0, 1.); (1, 1.) ]; Barrier.row [ (0, -1.) ]; Barrier.row [ (1, -1.) ] |],
    [| 3.; 0.; 0. |] )

let test_barrier_projection () =
  let a, b = simplex_region in
  let x = Barrier.minimize ?tol:None ?t0:None ?mu:None ?newton_tol:None ?max_newton:None
      (quadratic_objective ()) ~a ~b ~x0:[| 0.5; 0.5 |] in
  check_float 1e-5 "x" 1. x.(0);
  check_float 1e-5 "y" 2. x.(1)

let test_barrier_interior_optimum () =
  (* loose constraint: optimum interior, should reach (2,3) *)
  let a = [| Barrier.row [ (0, 1.); (1, 1.) ] |] and b = [| 100. |] in
  let x = Barrier.minimize ?tol:None ?t0:None ?mu:None ?newton_tol:None ?max_newton:None
      (quadratic_objective ()) ~a ~b ~x0:[| 1.; 1. |] in
  check_float 1e-4 "x free" 2. x.(0);
  check_float 1e-4 "y free" 3. x.(1)

let test_barrier_rejects_infeasible_start () =
  let a, b = simplex_region in
  Alcotest.check_raises "infeasible start" Barrier.Not_strictly_feasible (fun () ->
      ignore
        (Barrier.minimize ?tol:None ?t0:None ?mu:None ?newton_tol:None ?max_newton:None
           (quadratic_objective ()) ~a ~b ~x0:[| 2.; 2. |]))

let test_feasible_start_predicate () =
  let a, b = simplex_region in
  Alcotest.(check bool) "strictly inside" true (Barrier.feasible_start ~a ~b ~x0:[| 1.; 1. |]);
  Alcotest.(check bool) "on boundary" false (Barrier.feasible_start ~a ~b ~x0:[| 0.; 1. |]);
  Alcotest.(check bool) "outside" false (Barrier.feasible_start ~a ~b ~x0:[| 5.; 5. |])

(* energy-shaped objective: min Σ w³/d² s.t. Σ d <= D, d >= w/fmax —
   the single-chain BI-CRIT program, whose optimum is uniform speed. *)
let test_barrier_energy_chain () =
  let w = [| 1.; 2.; 3. |] in
  let d_total = 12. in
  let n = 3 in
  let cube x = x *. x *. x in
  let obj =
    {
      Barrier.f =
        (fun d ->
          let acc = ref 0. in
          for i = 0 to n - 1 do
            acc := !acc +. (cube w.(i) /. (d.(i) *. d.(i)))
          done;
          !acc);
      grad = (fun d -> Array.init n (fun i -> -2. *. cube w.(i) /. cube d.(i)));
      hess_diag = (fun d -> Array.init n (fun i -> 6. *. cube w.(i) /. (d.(i) *. d.(i) *. d.(i) *. d.(i))));
    }
  in
  let a =
    Array.append
      [| Barrier.row (List.init n (fun j -> (j, 1.))) |]
      (Array.init n (fun i -> Barrier.row [ (i, -1.) ]))
  in
  let b = Array.append [| d_total |] (Array.map (fun wi -> -.wi /. 10.) w) in
  let x0 = Array.map (fun wi -> d_total *. wi /. 6. *. 0.9) w in
  let d = Barrier.minimize ?tol:None ?t0:None ?mu:None ?newton_tol:None ?max_newton:None obj ~a ~b ~x0 in
  (* optimal: common speed Σw/D = 0.5, so d_i = 2 w_i *)
  for i = 0 to n - 1 do
    check_float 1e-4 "duration proportional to weight" (2. *. w.(i)) d.(i)
  done

module Obs = Es_obs.Obs

let with_obs f =
  Obs.enable ();
  Fun.protect ~finally:(fun () -> Obs.disable ()) f

let unit_interval = ([| Barrier.row [ (0, 1.) ]; Barrier.row [ (0, -1.) ] |], [| 1.; 0. |])

let test_barrier_counts_not_pd () =
  (* a concave objective: once t·f'' outweighs the barrier curvature
     the Newton matrix is indefinite, the factorisation refuses it and
     the solver takes its gradient fallback step, staying inside *)
  let obj =
    {
      Barrier.f = (fun x -> -.(x.(0) *. x.(0)));
      grad = (fun x -> [| -2. *. x.(0) |]);
      hess_diag = (fun _ -> [| -2. |]);
    }
  in
  let a, b = unit_interval in
  let c_not_pd = Obs.counter "barrier_not_pd" in
  let before = Obs.value c_not_pd in
  let x =
    with_obs (fun () ->
        Barrier.minimize ?tol:None ?t0:None ?mu:None ?newton_tol:None ?max_newton:None obj ~a
          ~b ~x0:[| 0.5 |])
  in
  Alcotest.(check bool) "not-PD steps counted" true (Obs.value c_not_pd > before);
  Alcotest.(check bool) "strictly inside" true (x.(0) > 0. && x.(0) < 1.)

let test_barrier_step_timers () =
  (* every Newton step is timed once in assembly+factor; every step
     that does not stop the centering is timed once in line search *)
  let a, b = simplex_region in
  let c_newton = Obs.counter "barrier_newton_iters" in
  let t_factor = Obs.timer "barrier_assemble_factor" in
  let t_search = Obs.timer "barrier_line_search" in
  let n0 = Obs.value c_newton and f0 = Obs.timer_count t_factor in
  let s0 = Obs.timer_count t_search in
  ignore
    (with_obs (fun () ->
         Barrier.minimize ?tol:None ?t0:None ?mu:None ?newton_tol:None ?max_newton:None
           (quadratic_objective ()) ~a ~b ~x0:[| 0.5; 0.5 |]));
  let steps = Obs.value c_newton - n0 in
  let searches = Obs.timer_count t_search - s0 in
  Alcotest.(check bool) "newton steps taken" true (steps > 0);
  Alcotest.(check int) "one assembly+factor per step" steps (Obs.timer_count t_factor - f0);
  Alcotest.(check bool) "line searches within steps" true (searches > 0 && searches <= steps)

let suite =
  ( "numopt",
    [
      Alcotest.test_case "bisect sqrt2" `Quick test_bisect_root;
      Alcotest.test_case "bisect endpoint roots" `Quick test_bisect_endpoint_roots;
      Alcotest.test_case "bisect sign check" `Quick test_bisect_sign_check;
      Alcotest.test_case "root_monotone clamps" `Quick test_root_monotone_clamps;
      Alcotest.test_case "golden quadratic" `Quick test_golden_quadratic;
      Alcotest.test_case "golden asymmetric" `Quick test_golden_asymmetric;
      Alcotest.test_case "newton cube root" `Quick test_newton;
      Alcotest.test_case "barrier projection" `Quick test_barrier_projection;
      Alcotest.test_case "barrier interior optimum" `Quick test_barrier_interior_optimum;
      Alcotest.test_case "barrier rejects bad start" `Quick test_barrier_rejects_infeasible_start;
      Alcotest.test_case "feasible_start predicate" `Quick test_feasible_start_predicate;
      Alcotest.test_case "barrier energy chain" `Quick test_barrier_energy_chain;
      Alcotest.test_case "barrier counts not-PD factorizations" `Quick test_barrier_counts_not_pd;
      Alcotest.test_case "barrier times factor and line search" `Quick test_barrier_step_timers;
    ] )
