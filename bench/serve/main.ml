(* esservd load harness: drive Es_serve.Server in-process with a
   seeded trace of solve requests at controlled duplicate ratios, and
   measure what the serving PR promises:

     - cached answers are cheap: p50 exact-hit latency at least 10x
       below p50 cold-solve latency (the --gate assertion);
     - rescale-hits are sound: every rescale-hit is re-solved
       (--selfcheck 1 equivalent) and must agree — zero disagreements;
     - parallelism is invisible: the response stream is byte-identical
       at --jobs 1 and --jobs 4 on the same trace.

   Writes BENCH_PR9.json under the esched-bench/2 conventions: a
   multi-job throughput point taken on fewer cores than jobs is
   recorded with ["valid": false] and a ["skipped_reason"], never as a
   scaling data point.

     dune exec bench/serve/main.exe                  # BENCH_PR9.json
     dune exec bench/serve/main.exe -- --out o.json  # change the path
     dune exec bench/serve/main.exe -- --gate        # assert the above *)

module Gen = Es_check.Gen
module Server = Es_serve.Server
module Rng = Es_util.Rng
module Stats = Es_util.Stats
module Json = Es_obs.Obs_json

let jobs_grid = [ 1; 2; 4 ]
let n_unique = 16
let n_dup = 32
let n_scaled = 16
let batch = 16
let gate_hit_speedup = 10.

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

(* Request lines are built through Obs_json so the trace is valid wire
   input by construction.  Only CONTINUOUS instances: the scaled
   variants exercise the rescale path, which exists for that model. *)
let line_of ~id ~scale_w ~scale_d (inst : Gen.inst) =
  let open Json in
  let nums xs = List (Array.to_list (Array.map (fun x -> Num x) xs)) in
  Json.to_compact_string
    (Obj
       [
         ("id", Num (float_of_int id));
         ("tasks", nums (Array.map (fun w -> w *. scale_w) inst.Gen.weights));
         ( "edges",
           List
             (List.map
                (fun (a, b) ->
                  List [ Num (float_of_int a); Num (float_of_int b) ])
                inst.Gen.edges) );
         ("procs", Num (float_of_int inst.Gen.procs));
         ( "model",
           Obj
             [
               ("kind", Str "continuous");
               ("fmin", Num (Gen.fmin inst));
               ("fmax", Num (Gen.fmax inst));
             ] );
         ("deadline", Num (Gen.deadline inst *. scale_d));
       ])

(* Feasible instances only: the latency comparison wants real solves,
   not early infeasibility exits. *)
let draw_instances () =
  let rng = Rng.create ~seed:97 in
  let rec go acc k =
    if k = 0 then List.rev acc
    else
      let inst = Gen.generate rng in
      if inst.Gen.slack >= 1.15 then go (inst :: acc) (k - 1) else go acc k
  in
  go [] n_unique

let build_trace () =
  let insts = Array.of_list (draw_instances ()) in
  let uniques =
    List.init n_unique (fun i -> line_of ~id:i ~scale_w:1. ~scale_d:1. insts.(i))
  in
  let rng = Rng.create ~seed:98 in
  (* duplicates re-send the original line byte-for-byte (same id), so
     they exercise the cache's line entries — the cheapest hit path *)
  let dups =
    List.init n_dup (fun _ ->
        let i = Rng.int rng n_unique in
        line_of ~id:i ~scale_w:1. ~scale_d:1. insts.(i))
  in
  let scaled =
    List.init n_scaled (fun k ->
        let i = Rng.int rng n_unique in
        line_of ~id:(2000 + k) ~scale_w:2. ~scale_d:1.25 insts.(i))
  in
  (uniques, dups @ scaled)

(* ------------------------------------------------------------------ *)
(* driving the server                                                  *)
(* ------------------------------------------------------------------ *)

let rec batches n = function
  | [] -> []
  | lines ->
    let rec split k acc = function
      | rest when k = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | l :: rest -> split (k - 1) (l :: acc) rest
    in
    let head, rest = split n [] lines in
    head :: batches n rest

let run_trace ~jobs trace =
  let config =
    {
      Server.default_config with
      Server.jobs = jobs;
      Server.batch = batch;
      Server.queue = batch;
      Server.selfcheck = 1;
    }
  in
  let srv = Server.create config in
  let wall, responses =
    Bench_common.wall (fun () ->
        Bench_common.with_jobs jobs (fun pool ->
            List.concat_map (Server.process_batch srv ~pool) (batches batch trace)))
  in
  (wall, responses, Server.samples srv)

let quantiles samples tag =
  let xs =
    Array.of_list
      (List.filter_map
         (fun (t, w) -> if String.equal t tag then Some w else None)
         samples)
  in
  if Array.length xs = 0 then None
  else Some (Array.length xs, Stats.quantile xs 0.5, Stats.quantile xs 0.99)

let count_substring responses needle =
  List.length
    (List.filter
       (fun r ->
         let rec find i =
           i + String.length needle <= String.length r
           && (String.equal (String.sub r i (String.length needle)) needle
              || find (i + 1))
         in
         find 0)
       responses)

(* ------------------------------------------------------------------ *)
(* main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let argv = Array.to_list Sys.argv in
  let gate = List.mem "--gate" argv in
  let path = Bench_common.out_path ~default:"BENCH_PR9.json" argv in
  let cores = (Domain.recommended_domain_count () [@lint.allow "P004"]) in
  let uniques, rest = build_trace () in
  let trace = uniques @ rest in
  let runs = List.map (fun jobs -> (jobs, run_trace ~jobs trace)) jobs_grid in
  let _, (_, reference, samples) =
    match runs with r :: _ -> r | [] -> failwith "empty jobs grid"
  in
  (* determinism: byte-identical response stream at every job count *)
  let divergent =
    List.filter_map
      (fun (jobs, (_, responses, _)) ->
        if List.equal String.equal responses reference then None else Some jobs)
      runs
  in
  List.iter
    (fun jobs ->
      Printf.eprintf "bench/serve: responses differ at --jobs %d\n" jobs)
    divergent;
  if divergent <> [] then exit 1;
  let hits = count_substring reference "\"cache\":\"hit\"" in
  let rescale_hits = count_substring reference "\"cache\":\"rescale-hit\"" in
  let misses = count_substring reference "\"cache\":\"miss\"" in
  let sc_fail = count_substring reference "\"self_check\":\"fail\"" in
  let sc_ok = count_substring reference "\"self_check\":\"ok\"" in
  let lat tag =
    match quantiles samples tag with
    | Some (n, p50, p99) ->
      Json.Obj
        [
          ("n", Json.Num (float_of_int n));
          ("p50_s", Json.Num p50);
          ("p99_s", Json.Num p99);
        ]
    | None -> Json.Null
  in
  let hit_speedup =
    match (quantiles samples "miss", quantiles samples "hit") with
    | Some (_, p50_miss, _), Some (_, p50_hit, _) when p50_hit > 0. ->
      Some (p50_miss /. p50_hit)
    | _ -> None
  in
  let point (jobs, (wall, responses, _)) =
    let valid = jobs <= cores in
    Json.Obj
      ([
         ("jobs", Json.Num (float_of_int jobs));
         ("wall_s", Json.Num wall);
         ( "throughput_rps",
           Json.Num (float_of_int (List.length responses) /. wall) );
         ("valid", Json.Bool valid);
       ]
      @
      if valid then []
      else
        [
          ( "skipped_reason",
            Json.Str (Printf.sprintf "cores=%d < jobs=%d" cores jobs) );
        ])
  in
  let gate_failures =
    if not gate then []
    else
      List.concat
        [
          (match hit_speedup with
          | Some s when s >= gate_hit_speedup -> []
          | Some s ->
            [ Printf.sprintf "hit speedup %.1fx < required %.1fx" s gate_hit_speedup ]
          | None -> [ "no hit/miss latency samples" ]);
          (if sc_fail = 0 then []
           else [ Printf.sprintf "%d self-check disagreement(s)" sc_fail ]);
          (if rescale_hits > 0 then []
           else [ "no rescale-hit was exercised" ]);
        ]
  in
  let json =
    Json.Obj
      [
        ("schema", Json.Str "esched-bench/2");
        ("baseline", Json.Str "PR9");
        ("cores", Json.Num (float_of_int cores));
        ("requests", Json.Num (float_of_int (List.length trace)));
        ( "trace",
          Json.Obj
            [
              ("unique", Json.Num (float_of_int n_unique));
              ("duplicate", Json.Num (float_of_int n_dup));
              ("scaled", Json.Num (float_of_int n_scaled));
              ("batch", Json.Num (float_of_int batch));
            ] );
        ( "cache",
          Json.Obj
            [
              ("miss", Json.Num (float_of_int misses));
              ("hit", Json.Num (float_of_int hits));
              ("rescale_hit", Json.Num (float_of_int rescale_hits));
              ("selfcheck_ok", Json.Num (float_of_int sc_ok));
              ("selfcheck_fail", Json.Num (float_of_int sc_fail));
            ] );
        ( "latency",
          Json.Obj
            [
              ("miss", lat "miss");
              ("hit", lat "hit");
              ("rescale_hit", lat "rescale-hit");
            ] );
        ( "hit_speedup_p50",
          match hit_speedup with Some s -> Json.Num s | None -> Json.Null );
        ("deterministic_across_jobs", Json.Bool true);
        ( "gate",
          Json.Obj
            [
              ("requested", Json.Bool gate);
              ("threshold_hit_speedup", Json.Num gate_hit_speedup);
              ("passed", Json.Bool (gate_failures = []));
            ] );
        ("points", Json.List (List.map point runs));
      ]
  in
  Bench_common.write_json ~path json;
  Printf.printf "bench/serve: wrote %s (%d requests, %d cores)\n" path
    (List.length trace) cores;
  Printf.printf "  cache: %d miss, %d hit, %d rescale-hit (self-check %d ok / %d fail)\n"
    misses hits rescale_hits sc_ok sc_fail;
  (match hit_speedup with
  | Some s -> Printf.printf "  hit p50 speedup over cold solve: %.1fx\n" s
  | None -> Printf.printf "  hit p50 speedup: n/a\n");
  List.iter
    (fun (jobs, (wall, responses, _)) ->
      Printf.printf "  jobs=%d  %8.1f ms  %7.0f req/s%s\n" jobs (wall *. 1e3)
        (float_of_int (List.length responses) /. wall)
        (if jobs <= cores then "" else "  (not a scaling point)"))
    runs;
  if gate then begin
    if gate_failures = [] then
      Printf.printf "  gate: passed (hit >= %.0fx, zero self-check failures, \
                     byte-identical across jobs)\n"
        gate_hit_speedup
    else begin
      List.iter
        (fun msg -> Printf.eprintf "bench/serve: GATE FAILURE %s\n" msg)
        gate_failures;
      exit 1
    end
  end
