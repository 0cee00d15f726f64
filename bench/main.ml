(* Benchmark baseline: every experiment table (E1..E12) as the
   algorithm that regenerates it, run once under Es_obs telemetry.
   The harness writes a machine-readable baseline (default
   BENCH_PR1.json) recording wall time plus the solver-work counters
   (LP solves, simplex pivots, Newton iterations, subsets explored...).
   Later perf PRs diff against this trajectory.

     dune exec bench/main.exe                      # writes BENCH_PR1.json
     dune exec bench/main.exe -- --out other.json  # change the output path *)

module Obs = Es_obs.Obs

let fmin = 0.2
let fmax = 1.0
let levels = [| 0.2; 0.4; 0.6; 0.8; 1.0 |]
let rel = Rel.make ~lambda0:1e-5 ~sensitivity:3. ~fmin ~fmax ~frel:0.8 ()

(* Fixed instances, prepared once so the timings only measure the
   algorithms themselves. *)

let fork_dag =
  let rng = Es_util.Rng.create ~seed:1 in
  Generators.fork rng ~n:16 ~wlo:0.5 ~whi:3.

let fork_mapping = Mapping.one_task_per_proc fork_dag
let fork_deadline = 2. *. List_sched.makespan_at_speed fork_mapping ~f:fmax

let sp =
  let rng = Es_util.Rng.create ~seed:2 in
  Generators.random_sp rng ~n:24 ~wlo:0.5 ~whi:3.

let layered_mapping, layered_deadline =
  let rng = Es_util.Rng.create ~seed:3 in
  let dag = Generators.random_layered rng ~layers:4 ~width:3 ~density:0.5 ~wlo:1. ~whi:3. in
  let m = List_sched.schedule dag ~p:3 ~priority:List_sched.Bottom_level in
  (m, 1.6 *. List_sched.makespan_at_speed m ~f:fmax)

let small_mapping, small_deadline =
  let rng = Es_util.Rng.create ~seed:4 in
  let dag = Generators.random_layered rng ~layers:3 ~width:3 ~density:0.5 ~wlo:1. ~whi:3. in
  let m = List_sched.schedule dag ~p:2 ~priority:List_sched.Bottom_level in
  (m, 1.5 *. List_sched.makespan_at_speed m ~f:fmax)

let chain_mapping, chain_deadline =
  let rng = Es_util.Rng.create ~seed:5 in
  let dag = Generators.chain rng ~n:10 ~wlo:0.5 ~whi:3. in
  let m = Mapping.single_processor dag in
  (m, 2.5 *. Dag.total_weight dag /. fmax)

let vdd_chain_mapping, vdd_chain_deadline =
  let rng = Es_util.Rng.create ~seed:6 in
  let dag = Generators.chain rng ~n:6 ~wlo:0.5 ~whi:2. in
  let m = Mapping.single_processor dag in
  (m, 2. *. Dag.total_weight dag /. fmax)

let repl_weights =
  let rng = Es_util.Rng.create ~seed:7 in
  Es_util.Rng.sample_weights rng ~n:8 ~lo:0.5 ~hi:3.

let repl_deadline = 2. *. Es_util.Futil.sum repl_weights /. fmax

let sim_schedule =
  let speeds = Array.make (Dag.n (Mapping.dag chain_mapping)) 0.5 in
  Schedule.of_speeds chain_mapping ~speeds

let bounds m =
  let n = Dag.n (Mapping.dag m) in
  (Array.make n fmin, Array.make n fmax)

let expect_some name f () = match f () with Some _ -> () | None -> failwith name

(* Every experiment as a named thunk, run once under telemetry. *)
let experiments : (string * (unit -> unit)) list =
  [
    (* E1: fork closed form *)
    ( "e1-fork-closed-form",
      fun () ->
        let root = Dag.weight fork_dag 0 in
        let children = Array.init 16 (fun i -> Dag.weight fork_dag (i + 1)) in
        ignore
          (Bicrit_continuous.fork_speeds ~root ~children ~deadline:fork_deadline ~fmax) );
    (* E1/E2: barrier convex solver *)
    ( "e1-barrier-solver",
      expect_some "e1-barrier-solver" (fun () ->
          let lo, hi = bounds fork_mapping in
          Bicrit_continuous.solve_general ~lo ~hi ~deadline:fork_deadline fork_mapping) );
    (* E2: SP recursion *)
    ( "e2-sp-recursion",
      fun () ->
        ignore (Bicrit_continuous.sp_speeds sp ~deadline:(2. *. Sp.total_weight sp)) );
    (* E3: VDD-HOPPING LP *)
    ( "e3-vdd-lp",
      expect_some "e3-vdd-lp" (fun () ->
          Bicrit_vdd.solve ~deadline:layered_deadline ~levels layered_mapping) );
    (* E4: incremental approximation *)
    ( "e4-incremental-approx",
      expect_some "e4-incremental-approx" (fun () ->
          Bicrit_incremental.approximate ~deadline:layered_deadline ~fmin ~fmax
            ~delta:0.1 layered_mapping) );
    (* E5: discrete exact B&B *)
    ( "e5-discrete-bb",
      expect_some "e5-discrete-bb" (fun () ->
          Bicrit_discrete.solve_exact ?node_limit:None ~deadline:small_deadline ~levels
            small_mapping) );
    (* E6: tri-crit chain greedy *)
    ( "e6-tricrit-chain-greedy",
      expect_some "e6-tricrit-chain-greedy" (fun () ->
          Tricrit_chain.solve_greedy ~rel ~deadline:chain_deadline chain_mapping) );
    (* E7: tri-crit fork polynomial algorithm *)
    ( "e7-tricrit-fork-poly",
      expect_some "e7-tricrit-fork-poly" (fun () ->
          Tricrit_fork.solve ?grid:None ~rel ~deadline:fork_deadline fork_dag) );
    (* E8: best-of heuristics *)
    ( "e8-heuristics-best-of",
      expect_some "e8-heuristics-best-of" (fun () ->
          Heuristics.best_of ~rel ~deadline:layered_deadline layered_mapping) );
    (* E9: tri-crit vdd fixed-subset LP *)
    ( "e9-tricrit-vdd-lp",
      expect_some "e9-tricrit-vdd-lp" (fun () ->
          let n = Dag.n (Mapping.dag vdd_chain_mapping) in
          Tricrit_vdd.solve_subset ~rel ~deadline:vdd_chain_deadline ~levels
            vdd_chain_mapping
            ~subset:(Array.init n (fun i -> i mod 2 = 0))) );
    (* E9b: split refinement with the probe cache *)
    ( "e9-tricrit-vdd-refine",
      expect_some "e9-tricrit-vdd-refine" (fun () ->
          let n = Dag.n (Mapping.dag vdd_chain_mapping) in
          let subset = Array.init n (fun i -> i mod 2 = 0) in
          match
            Tricrit_vdd.solve_subset ~rel ~deadline:vdd_chain_deadline ~levels
              vdd_chain_mapping ~subset
          with
          | None -> None
          | Some sol ->
            Some
              (Tricrit_vdd.refine_splits ?rounds:None ?use_cache:None ~rel
                 ~deadline:vdd_chain_deadline ~levels vdd_chain_mapping sol)) );
    (* E10: fault-injection simulator (1000 trials) *)
    ( "e10-sim-1000-trials",
      fun () ->
        ignore
          (Sim.monte_carlo (Es_util.Rng.create ~seed:8) ~rel ~trials:1000 sim_schedule)
    );
    (* E11: list scheduling *)
    ( "e11-list-scheduling",
      let rng = Es_util.Rng.create ~seed:9 in
      let dag =
        Generators.random_layered rng ~layers:6 ~width:5 ~density:0.4 ~wlo:1. ~whi:3.
      in
      fun () -> ignore (List_sched.schedule dag ~p:4 ~priority:List_sched.Bottom_level) );
    (* E12: replication greedy *)
    ( "e12-replication-greedy",
      expect_some "e12-replication-greedy" (fun () ->
          Replication.solve_greedy ~rel ~deadline:repl_deadline ~weights:repl_weights) );
    (* E13: exact general-DAG tri-crit (2^n barrier solves, small n) *)
    ( "e13-tricrit-exact-n6",
      expect_some "e13-tricrit-exact-n6" (fun () ->
          Tricrit_exact.solve ?max_n:None ~rel ~deadline:vdd_chain_deadline
            vdd_chain_mapping) );
    (* E14: checkpointing segmentation *)
    ( "e14-checkpointing",
      expect_some "e14-checkpointing" (fun () ->
          (* worst case re-runs every segment: needs more than 2x slack *)
          Checkpointing.solve ?speed_grid:None ~rel ~checkpoint_work:0.2
            ~deadline:(2. *. repl_deadline) ~weights:repl_weights) );
    (* E15: static-power closed form *)
    ( "e15-power-ablation",
      expect_some "e15-power-ablation" (fun () ->
          Power.ablation_penalty ~static:0.25 ~weights:repl_weights
            ~deadline:repl_deadline ~fmin:0.05 ~fmax) );
    (* chain knapsack DP *)
    ( "e6-tricrit-chain-dp",
      expect_some "e6-tricrit-chain-dp" (fun () ->
          Tricrit_chain.solve_dp ?buckets:None ~rel ~deadline:chain_deadline
            chain_mapping) );
  ]

(* ------------------------------------------------------------------ *)
(* JSON baseline                                                       *)
(* ------------------------------------------------------------------ *)

let baseline_json () =
  let open Es_obs.Obs_json in
  Obs.enable ();
  let entries =
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Obs.reset ())
      (fun () ->
        List.map
          (fun (name, f) ->
            Obs.reset ();
            let t0 = Obs.now () in
            f ();
            let wall = Obs.now () -. t0 in
            Obj
              [
                ("name", Str name);
                ("wall_s", Num wall);
                ("telemetry", Obs.to_json (Obs.snapshot ()));
              ])
          experiments)
  in
  Obj
    [
      ("schema", Str "esched-bench/1");
      ("baseline", Str "PR1");
      ("runs_per_experiment", Num 1.);
      ("experiments", List entries);
    ]

let write_baseline path =
  Bench_common.write_json ~path (baseline_json ());
  Printf.printf "baseline: wrote %s (%d experiments)\n" path (List.length experiments)

(* ------------------------------------------------------------------ *)
(* LP scaling curves (--lp-scaling): BENCH_PR10.json                   *)
(* ------------------------------------------------------------------ *)

(* Scaling behaviour of the revised sparse simplex (PR10) against the
   retained dense tableau: task-count curve n ∈ {10², 10³, 10⁴} on the
   5-level VDD menu, menu curve m ∈ {5, 25, 100} speeds at n = 10²,
   each split into single-solve cost and a warm-chained deadline
   sweep.  Full solves that would take minutes (dense at n ≥ 10³,
   anything at n = 10⁴) are recorded as explicit power-law
   extrapolations ("extrapolated": true, fitted from the measured
   sizes) rather than silently dropped or silently endured. *)
module Lp_scaling = struct
  module Problem = Es_lp.Problem
  module Lp_cert = Es_check.Lp_cert
  open Es_obs.Obs_json

  let levels5 = [| 0.2; 0.4; 0.6; 0.8; 1.0 |]
  let sweep_k = 20

  let chain_mapping n =
    let rng = Es_util.Rng.create ~seed:(100 + n) in
    Mapping.single_processor (Generators.chain rng ~n ~wlo:0.5 ~whi:2.)

  let base_deadline mapping = 2. *. Dag.total_weight (Mapping.dag mapping)

  let lp_at ~levels mapping scale =
    Bicrit_vdd.lp ~deadline:(scale *. base_deadline mapping) ~levels mapping

  let revised_cold ~levels mapping =
    let t, o = Bench_common.wall (fun () -> Problem.solve (lp_at ~levels mapping 1.)) in
    match o with
    | Problem.Solution _ -> t
    | Problem.Infeasible | Problem.Unbounded -> failwith "lp-scaling: cold solve not optimal"

  let dense_cold ~levels mapping =
    let lp = lp_at ~levels mapping 1. in
    let obj = Problem.objective_coeffs lp in
    let rows = Problem.constraints lp in
    let t, o = Bench_common.wall (fun () -> Es_lp.Simplex.solve_dense ~obj rows) in
    match o with
    | Es_lp.Simplex.Optimal _ -> t
    | Es_lp.Simplex.Infeasible | Es_lp.Simplex.Unbounded ->
      failwith "lp-scaling: dense solve not optimal"

  (* Warm-chained sweep over [sweep_k] deadlines (1% steps), certifying
     every optimum against the raw LP statement.  Returns total wall,
     and whether all solves were optimal and certified. *)
  let warm_sweep ~levels mapping =
    let certified = ref true in
    let basis = ref None in
    let t, () =
      Bench_common.wall (fun () ->
          for i = 0 to sweep_k - 1 do
            let lp = lp_at ~levels mapping (1. +. (0.01 *. float_of_int i)) in
            let o, b = Problem.solve_warm ?basis:!basis lp in
            basis := b;
            match o with
            | Problem.Solution s -> (
              match Lp_cert.certify_problem lp s with
              | Lp_cert.Certified _ -> ()
              | Lp_cert.Rejected _ -> certified := false)
            | Problem.Infeasible | Problem.Unbounded -> certified := false
          done)
    in
    (t, !certified)

  (* Least-squares power-law fit t = c·n^k on log-log axes. *)
  let fit_power points =
    let n = float_of_int (List.length points) in
    let lx = List.map (fun (x, _) -> log x) points in
    let ly = List.map (fun (_, y) -> log y) points in
    let sum = List.fold_left ( +. ) 0. in
    let sx = sum lx and sy = sum ly in
    let sxx = sum (List.map (fun x -> x *. x) lx) in
    let sxy = sum (List.map2 ( *. ) lx ly) in
    let k = ((n *. sxy) -. (sx *. sy)) /. ((n *. sxx) -. (sx *. sx)) in
    let c = exp ((sy -. (k *. sx)) /. n) in
    (c, k)

  let eval_power (c, k) x = c *. (x ** k)

  (* Differential corpus: seeded random LPs with mixed row senses,
     dense vs revised (cold, then warm re-solve from the cold basis);
     any outcome-class mismatch, objective divergence beyond rtol 1e-8,
     or uncertified optimum counts as a disagreement. *)
  let differential ~trials =
    let disagreements = ref 0 in
    for seed = 1 to trials do
      let rng = Es_util.Rng.create ~seed:(9000 + seed) in
      let nv = 2 + Es_util.Rng.int rng 3 in
      let nr = 2 + Es_util.Rng.int rng 4 in
      let coeffs () =
        Array.init nv (fun _ ->
            if Es_util.Rng.uniform_in rng 0. 1. < 0.25 then 0.
            else Es_util.Rng.uniform_in rng (-2.) 2.)
      in
      let obj =
        Array.init nv (fun _ ->
            if Es_util.Rng.uniform_in rng 0. 1. < 0.85 then Es_util.Rng.uniform_in rng 0.1 2.
            else Es_util.Rng.uniform_in rng (-1.) 0.)
      in
      let rows =
        List.init nr (fun _ ->
            let relation =
              match Es_util.Rng.int rng 3 with
              | 0 -> Es_lp.Simplex.Le
              | 1 -> Es_lp.Simplex.Ge
              | _ -> Es_lp.Simplex.Eq
            in
            { Es_lp.Simplex.coeffs = coeffs (); relation; rhs = Es_util.Rng.uniform_in rng (-2.) 4. })
      in
      let sp = Es_lp.Sparse.of_rows ~obj rows in
      let dense = Es_lp.Simplex.solve_dense ~obj rows in
      let cold, basis = Es_lp.Revised.solve sp in
      let ok_certified o =
        match Lp_cert.certify_outcome ~obj ~constraints:rows o with
        | None | Some (Lp_cert.Certified _) -> true
        | Some (Lp_cert.Rejected _) -> false
      in
      let agree a b =
        match (a, b) with
        | Es_lp.Simplex.Optimal { objective = x; _ }, Es_lp.Simplex.Optimal { objective = y; _ }
          ->
          Float.abs (x -. y) <= 1e-8 *. Float.max 1. (Float.max (Float.abs x) (Float.abs y))
        | Es_lp.Simplex.Infeasible, Es_lp.Simplex.Infeasible
        | Es_lp.Simplex.Unbounded, Es_lp.Simplex.Unbounded ->
          true
        | _ -> false
      in
      let warm_ok =
        match basis with
        | None -> true
        | Some b ->
          let warm, _ = Es_lp.Revised.solve_from b sp in
          agree cold warm && ok_certified warm
      in
      if not (agree dense cold && ok_certified cold && warm_ok) then incr disagreements
    done;
    !disagreements

  let run ~gate =
    (* fit points for the two solvers (dense stops where it gets slow) *)
    let fit_sizes_dense = [ 50; 100; 200 ] in
    let fit_sizes_revised = [ 50; 100; 200; 500; 1000 ] in
    let measure sizes solver =
      List.map
        (fun n ->
          let t = solver ~levels:levels5 (chain_mapping n) in
          Printf.printf "  measured n=%d: %.3fs\n%!" n t;
          (float_of_int n, t))
        sizes
    in
    print_endline "lp-scaling: dense single-solve fit points";
    let dense_pts = measure fit_sizes_dense dense_cold in
    print_endline "lp-scaling: revised single-solve fit points";
    let revised_pts = measure fit_sizes_revised revised_cold in
    let dense_fit = fit_power dense_pts in
    let revised_fit = fit_power revised_pts in
    let lookup pts n = List.assoc_opt (float_of_int n) pts in
    (* task-count curve on the 5-level menu *)
    let task_curve =
      List.map
        (fun n ->
          let fn = float_of_int n in
          let revised_s, revised_ex =
            match lookup revised_pts n with
            | Some t -> (t, false)
            | None -> (eval_power revised_fit fn, true)
          in
          let dense_s, dense_ex =
            match lookup dense_pts n with
            | Some t -> (t, false)
            | None -> (eval_power dense_fit fn, true)
          in
          let sweep =
            if n > 1000 then
              Obj
                [
                  ("skipped_reason", Str "full solves at this size are extrapolated");
                  ("k", Num (float_of_int sweep_k));
                ]
            else begin
              let wall, certified = warm_sweep ~levels:levels5 (chain_mapping n) in
              let per_solve = wall /. float_of_int sweep_k in
              Printf.printf
                "  n=%d warm sweep: %.2fs total, %.3fs/solve (dense %.3fs/solve%s)\n%!" n wall
                per_solve dense_s
                (if dense_ex then ", extrapolated" else "");
              Obj
                [
                  ("k", Num (float_of_int sweep_k));
                  ("wall_s", Num wall);
                  ("per_solve_s", Num per_solve);
                  ("certified_all", Bool certified);
                  ("cold_sweep_s_equiv", Num (revised_s *. float_of_int sweep_k));
                  ("speedup_vs_cold", Num (revised_s /. per_solve));
                  ("speedup_vs_dense", Num (dense_s /. per_solve));
                ]
            end
          in
          ( n,
            Obj
              [
                ("n", Num fn);
                ("revised_cold_s", Num revised_s);
                ("revised_extrapolated", Bool revised_ex);
                ("dense_cold_s", Num dense_s);
                ("dense_extrapolated", Bool dense_ex);
                ("sweep", sweep);
              ] ))
        [ 100; 1000; 10_000 ]
    in
    (* menu curve at n = 100 *)
    let menu_curve =
      List.map
        (fun m ->
          let levels =
            Array.init m (fun i ->
                0.1 +. (0.9 *. float_of_int i /. float_of_int (max 1 (m - 1))))
          in
          let mapping = chain_mapping 100 in
          let cold = revised_cold ~levels mapping in
          let wall, certified = warm_sweep ~levels mapping in
          Printf.printf "  n=100 m=%d: cold %.3fs, warm sweep %.2fs\n%!" m cold wall;
          Obj
            [
              ("levels", Num (float_of_int m));
              ("revised_cold_s", Num cold);
              ("sweep", Obj
                 [
                   ("k", Num (float_of_int sweep_k));
                   ("wall_s", Num wall);
                   ("per_solve_s", Num (wall /. float_of_int sweep_k));
                   ("certified_all", Bool certified);
                 ]);
            ])
        [ 5; 25; 100 ]
    in
    print_endline "lp-scaling: differential corpus";
    let diff_trials = 200 in
    let disagreements = differential ~trials:diff_trials in
    Printf.printf "  %d trials, %d disagreements\n%!" diff_trials disagreements;
    (* the gate: warm sweep >= 5x the dense baseline at n = 10^3, all
       sweep solves certified, zero differential disagreements *)
    let threshold = 5. in
    let gate_entry =
      match List.find_opt (fun (n, _) -> n = 1000) task_curve with
      | Some (_, entry) -> entry
      | None -> failwith "lp-scaling: no n=1000 curve point for the gate"
    in
    let gate_speedup, gate_certified =
      match member "sweep" gate_entry with
      | Some sweep -> (
        ( (match member "speedup_vs_dense" sweep with Some (Num s) -> s | _ -> 0.),
          match member "certified_all" sweep with Some (Bool b) -> b | _ -> false ))
      | None -> (0., false)
    in
    let certified_all_sweeps =
      gate_certified
      && List.for_all
           (fun e ->
             match member "sweep" e with
             | Some sweep -> (
               match member "certified_all" sweep with Some (Bool b) -> b | _ -> true)
             | None -> true)
           menu_curve
    in
    let passed =
      gate_speedup >= threshold && certified_all_sweeps && disagreements = 0
    in
    Printf.printf
      "gate: warm sweep at n=1000 is %.1fx dense (threshold %.0fx), certified=%b, \
       differential disagreements=%d -> %s\n%!"
      gate_speedup threshold certified_all_sweeps disagreements
      (if passed then "PASS" else "FAIL");
    let doc =
      Obj
        [
          ("schema", Str "esched-bench/3");
          ("baseline", Str "PR10");
          ("sweep_deadlines", Num (float_of_int sweep_k));
          ("task_scaling", List (List.map snd task_curve));
          ("menu_scaling", List menu_curve);
          ( "dense_fit",
            Obj [ ("c", Num (fst dense_fit)); ("k", Num (snd dense_fit)) ] );
          ( "revised_fit",
            Obj [ ("c", Num (fst revised_fit)); ("k", Num (snd revised_fit)) ] );
          ( "differential",
            Obj
              [
                ("trials", Num (float_of_int diff_trials));
                ("disagreements", Num (float_of_int disagreements));
              ] );
          ( "gate",
            Obj
              [
                ("applied", Bool gate);
                ("threshold_speedup", Num threshold);
                ("at_n", Num 1000.);
                ("speedup_vs_dense", Num gate_speedup);
                ("certified_all_sweeps", Bool certified_all_sweeps);
                ("differential_disagreements", Num (float_of_int disagreements));
                ("passed", Bool passed);
              ] );
        ]
    in
    (doc, passed)
end

let () =
  let argv = Array.to_list Sys.argv in
  if List.mem "--lp-scaling" argv then begin
    let gate = List.mem "--gate" argv in
    let doc, passed = Lp_scaling.run ~gate in
    let path = Bench_common.out_path ~default:"BENCH_PR10.json" argv in
    Bench_common.write_json ~path doc;
    Printf.printf "lp-scaling: wrote %s\n" path;
    if gate && not passed then exit 1
  end
  else write_baseline (Bench_common.out_path ~default:"BENCH_PR1.json" argv)
