(* Tests for the two sparse factorisations: the barrier's Cholesky
   (Es_numopt.Sparse_chol) and the simplex's LU (Es_lp.Lu), including
   property tests on random SPD matrices with the barrier's row shape. *)

module Chol = Es_numopt.Sparse_chol
module Lu = Es_lp.Lu

let random_spd rng n =
  (* B·Bᵀ + n·I is SPD for random B *)
  let b = Array.init n (fun _ -> Array.init n (fun _ -> Es_util.Rng.uniform_in rng (-1.) 1.)) in
  Array.init n (fun i ->
      Array.init n (fun j ->
          let acc = ref (if i = j then float_of_int n else 0.) in
          for k = 0 to n - 1 do
            acc := !acc +. (b.(i).(k) *. b.(j).(k))
          done;
          !acc))

let mat_vec a x =
  Array.map (fun row -> Array.fold_left ( +. ) 0. (Array.mapi (fun j v -> v *. x.(j)) row)) a

let norm_inf v = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0. v

(* Assemble the lower triangle of a dense symmetric matrix into
   factor storage for [sym]. *)
let load sym fac a =
  Chol.clear fac;
  Array.iteri
    (fun i row ->
      for j = 0 to i do
        if row.(j) <> 0. then Chol.add fac (Chol.slot sym i j) row.(j)
      done)
    a

(* Factor a dense symmetric matrix through the sparse path: one clique
   covering every index makes the pattern full. *)
let chol_dense a =
  let n = Array.length a in
  let sym = Chol.analyze ~n [| Array.init n Fun.id |] in
  let fac = Chol.create sym in
  load sym fac a;
  Chol.factorize fac;
  (sym, fac)

(* max |(L·Lᵀ − P·H·Pᵀ)_ij| *)
let reconstruction_error (sym, fac) h =
  let n = Array.length h in
  let p = Chol.perm sym in
  let l = Array.init n (fun _ -> Array.make n 0.) in
  Chol.iter_l fac (fun i j v -> l.(i).(j) <- v);
  let worst = ref 0. in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let llt = ref 0. in
      for k = 0 to n - 1 do
        llt := !llt +. (l.(i).(k) *. l.(j).(k))
      done;
      worst := Float.max !worst (Float.abs (!llt -. h.(p.(i)).(p.(j))))
    done
  done;
  !worst

let lu_solve a b =
  let m = Array.length a in
  let col j = List.init m (fun i -> (i, a.(i).(j))) |> List.filter (fun (_, v) -> v <> 0.) in
  Lu.ftran (Lu.factor ~m ~col (Array.init m Fun.id)) (Array.copy b)

let test_cholesky_roundtrip () =
  let rng = Es_util.Rng.create ~seed:21 in
  for n = 1 to 8 do
    let a = random_spd rng n in
    Alcotest.(check (float 1e-8)) "l·lᵀ = p·a·pᵀ" 0. (reconstruction_error (chol_dense a) a)
  done

let test_cholesky_rejects_indefinite () =
  let a = [| [| 1.; 2. |]; [| 2.; 1. |] |] in
  (* eigenvalues 3 and -1 *)
  Alcotest.check_raises "not PD" Chol.Not_positive_definite (fun () -> ignore (chol_dense a))

let test_lu_solve_roundtrip () =
  let rng = Es_util.Rng.create ~seed:22 in
  for n = 1 to 8 do
    let a = Array.init n (fun _ -> Array.init n (fun _ -> Es_util.Rng.uniform_in rng (-2.) 2.)) in
    (* make it comfortably nonsingular *)
    for i = 0 to n - 1 do
      a.(i).(i) <- a.(i).(i) +. 5.
    done;
    let x_true = Array.init n (fun i -> float_of_int (i + 1)) in
    let x = lu_solve a (mat_vec a x_true) in
    for i = 0 to n - 1 do
      Alcotest.(check (float 1e-8)) "lu solve" x_true.(i) x.(i)
    done
  done

let test_cholesky_solve_matches_lu () =
  let rng = Es_util.Rng.create ~seed:23 in
  let a = random_spd rng 6 in
  let b = Array.init 6 (fun i -> float_of_int i +. 0.5) in
  let x1 = Chol.solve (snd (chol_dense a)) b and x2 = lu_solve a b in
  for i = 0 to 5 do
    Alcotest.(check (float 1e-8)) "cholesky = lu" x2.(i) x1.(i)
  done

let test_lu_singular_detected () =
  let a = [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  Alcotest.check_raises "singular" Lu.Singular (fun () -> ignore (lu_solve a [| 1.; 1. |]))

let test_min_degree_arrowhead () =
  (* index 0 is coupled to every other index: eliminated first it
     would fill L completely; minimum degree leaves it until its
     degree has dropped to one and L keeps the pattern's 2n − 1
     entries *)
  let n = 30 in
  let sym = Chol.analyze ~n (Array.init (n - 1) (fun i -> [| 0; i + 1 |])) in
  Alcotest.(check int) "no fill" ((2 * n) - 1) (Chol.nnz sym);
  Alcotest.(check int) "hub among the last two" 0 (Chol.perm sym).(n - 2);
  Alcotest.check_raises "slot outside the pattern" Not_found (fun () ->
      ignore (Chol.slot sym 1 2))

let qcheck_lu_residual =
  QCheck.Test.make ~name:"lu solve residual small" ~count:100
    QCheck.(int_bound 1000)
    (fun seed ->
      let rng = Es_util.Rng.create ~seed in
      let n = 1 + Es_util.Rng.int rng 10 in
      let a = Array.init n (fun _ -> Array.init n (fun _ -> Es_util.Rng.uniform_in rng (-1.) 1.)) in
      for i = 0 to n - 1 do
        a.(i).(i) <- a.(i).(i) +. float_of_int n
      done;
      let b = Array.init n (fun _ -> Es_util.Rng.uniform_in rng (-1.) 1.) in
      let x = lu_solve a b in
      norm_inf (Array.map2 ( -. ) (mat_vec a x) b) < 1e-8)

(* A random matrix of the barrier's shape, H = D + Σ_r w_r a_r a_rᵀ,
   with rows of at most three nonzeros and a positive diagonal D. *)
let random_barrier_pattern rng =
  let n = 1 + Es_util.Rng.int rng 40 in
  let m = Es_util.Rng.int rng (2 * n) in
  let rows =
    Array.init m (fun _ ->
        let k = 1 + Es_util.Rng.int rng (min 3 n) in
        let idx = Array.init n Fun.id in
        Es_util.Rng.shuffle rng idx;
        Array.sub idx 0 k)
  in
  (n, rows)

let random_values rng (n, rows) =
  let h = Array.init n (fun i -> Array.init n (fun j -> if i = j then Es_util.Rng.uniform_in rng 0.1 2. else 0.)) in
  Array.iter
    (fun idx ->
      let w = Es_util.Rng.uniform_in rng 0.1 10. in
      let c = Array.map (fun _ -> Es_util.Rng.uniform_in rng (-2.) 2.) idx in
      Array.iteri
        (fun p i -> Array.iteri (fun q j -> h.(i).(j) <- h.(i).(j) +. (w *. c.(p) *. c.(q))) idx)
        idx)
    rows;
  h

(* ‖H x − b‖∞ ≤ 1e-10 · ‖H‖∞ ‖x‖∞ *)
let solve_ok fac h =
  let n = Array.length h in
  let b = Array.init n (fun i -> float_of_int (i mod 7) -. 3.) in
  let x = Chol.solve fac b in
  let h_norm = norm_inf (Array.map (fun row -> Array.fold_left (fun a v -> a +. Float.abs v) 0. row) h) in
  norm_inf (Array.map2 ( -. ) (mat_vec h x) b) <= 1e-10 *. h_norm *. Float.max (norm_inf x) 1e-300

let factor_values fac =
  let out = ref [] in
  Chol.iter_l fac (fun i j v -> out := (i, j, v) :: !out);
  !out

let qcheck_sparse_cholesky =
  QCheck.Test.make ~name:"sparse cholesky: L·Lᵀ = P·H·Pᵀ and solve residual" ~count:200
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Es_util.Rng.create ~seed in
      let ((n, rows) as pattern) = random_barrier_pattern rng in
      let h = random_values rng pattern in
      let sym = Chol.analyze ~n rows in
      let fac = Chol.create sym in
      load sym fac h;
      Chol.factorize fac;
      let scale = Array.fold_left (fun acc row -> Float.max acc (norm_inf row)) 1. h in
      reconstruction_error (sym, fac) h <= 1e-12 *. scale && solve_ok fac h)

let qcheck_symbolic_reuse =
  QCheck.Test.make ~name:"one symbolic analysis serves many refactorizations" ~count:100
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Es_util.Rng.create ~seed in
      let ((n, rows) as pattern) = random_barrier_pattern rng in
      let sym = Chol.analyze ~n rows in
      let fac = Chol.create sym in
      List.for_all
        (fun round ->
          let h = random_values rng pattern in
          (* every other round first fails on an indefinite matrix:
             the failed factorisation must leave nothing behind *)
          let recovered =
            round mod 2 = 0
            ||
            let bad = Array.map Array.copy h in
            bad.(n - 1).(n - 1) <- -1.;
            load sym fac bad;
            match Chol.factorize fac with
            | () -> false
            | exception Chol.Not_positive_definite -> true
          in
          load sym fac h;
          Chol.factorize fac;
          (* a fresh analysis and storage agree bit for bit *)
          let fresh_sym = Chol.analyze ~n rows in
          let fresh = Chol.create fresh_sym in
          load fresh_sym fresh h;
          Chol.factorize fresh;
          let same (i, j, v) (i', j', v') = i = i' && j = j' && Float.equal v v' in
          let scale = Array.fold_left (fun acc row -> Float.max acc (norm_inf row)) 1. h in
          recovered
          && List.for_all2 same (factor_values fac) (factor_values fresh)
          && reconstruction_error (sym, fac) h <= 1e-12 *. scale
          && solve_ok fac h)
        (List.init 5 Fun.id))

let suite =
  ( "linalg",
    [
      Alcotest.test_case "cholesky roundtrip" `Quick test_cholesky_roundtrip;
      Alcotest.test_case "cholesky rejects indefinite" `Quick test_cholesky_rejects_indefinite;
      Alcotest.test_case "lu solve roundtrip" `Quick test_lu_solve_roundtrip;
      Alcotest.test_case "solve_spd matches lu" `Quick test_cholesky_solve_matches_lu;
      Alcotest.test_case "singular detected" `Quick test_lu_singular_detected;
      Alcotest.test_case "min-degree avoids arrowhead fill" `Quick test_min_degree_arrowhead;
      QCheck_alcotest.to_alcotest qcheck_lu_residual;
      QCheck_alcotest.to_alcotest qcheck_sparse_cholesky;
      QCheck_alcotest.to_alcotest qcheck_symbolic_reuse;
    ] )
