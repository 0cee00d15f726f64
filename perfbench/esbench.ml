(* The repository benchmark: replays seeded workloads through the
   public entry points ([Es_serve.Server.process_batch] with the
   esservd defaults, [Pareto.bicrit_vdd_front]), checks every answer
   outside the timed region, and prints every metric by name and unit.
   The last line of standard output is one JSON object:

     {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

   holding the end-to-end metrics (--trace 0) or the per-layer metrics
   of a separate traced run (--trace 1).  See perfbench/README.md. *)

module Protocol = Es_serve.Protocol
module Server = Es_serve.Server
module Cache = Es_serve.Cache
module Canon = Es_serve.Canon
module Obs = Es_obs.Obs
module Json = Es_obs.Obs_json
module Pool = Es_par.Pool
module Stats = Es_util.Stats
module W = Workload

let now = Unix.gettimeofday

(* CPU time of the whole process, every domain included.  The gated
   metrics are CPU times: on the shared 2-core host the benchmark was
   tuned on, the hypervisor took back up to a quarter of the cores for
   minutes at a time (steal), which stretched the wall time of the same
   run by as much, while the process's CPU time leaves stolen time out.
   Wall-time throughput and latencies are printed beside them. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  jobs : int;
}

let workloads = [ "serve-cold-mix"; "serve-repeat"; "pareto-vdd-sweep" ]

(* Requests per batch (the esservd default) and batches per block: the
   cold mix repeats its composition every 40 requests and the repeat
   trace its variant pattern every 10, so a run stops on a multiple of
   5 batches. *)
let batch = 8
let block_batches = 5

(* Pool width of the timed runs: the esservd default. *)
let esservd_jobs = 2

(* Every loop stops early, even mid-block, once the process has run this
   long, so that a run always ends within three minutes. *)
let started = Unix.gettimeofday ()
let out_of_time () = Unix.gettimeofday () -. started > 140.

(* ---- answer tally -------------------------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;
  mutable ratios : float list;  (** heuristic energy / CONTINUOUS optimum *)
}

let tally () = { attempted = 0; failed = 0; wrong = 0; ratios = [] }

let record t ~what verdict =
  t.attempted <- t.attempted + 1;
  match verdict with
  | Verify.Good { heuristic_ratio = Some r } -> t.ratios <- r :: t.ratios
  | Verify.Good { heuristic_ratio = None } -> ()
  | Verify.Failed status ->
    t.failed <- t.failed + 1;
    if t.failed <= 3 then Printf.eprintf "failed: %s -> %s\n%!" what status
  | Verify.Wrong msg ->
    t.wrong <- t.wrong + 1;
    if t.wrong <= 5 then Printf.eprintf "WRONG: %s: %s\n%!" what msg

(* ---- metrics -------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let quantile xs q = if Array.length xs = 0 then 0. else Stats.quantile xs q

let print_metrics ~header ms =
  Printf.printf "%s\n" header;
  List.iter (fun x -> Printf.printf "  %-34s %14.6g %s\n" x.name x.value x.unit_) ms

let json_line ~correct ~attempted ~failed ms =
  let metric x = (x.name, Json.Obj [ ("value", Json.Num x.value); ("unit", Json.Str x.unit_) ]) in
  Json.to_compact_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ("metrics", Json.Obj (List.map metric ms));
       ])

let words_mb w = w *. float_of_int (Sys.word_size / 8) /. 1048576.
let heap_peak_mb () = words_mb (float_of_int (Gc.quick_stat ()).Gc.top_heap_words)

(* Live major heap after a full collection.  The heap growth of a run is
   this, taken while the server (or pool) is still alive once the run
   has answered a fixed number of operations (or at its end, if it ends
   first), minus its value right after set-up, so that the benchmark's
   own inputs cancel out: what remains is what the program keeps per
   operation.  The server retains per request, so a snapshot at the end
   would move with the host's speed. *)
let live_mb () =
  Gc.full_major ();
  words_mb (float_of_int (Gc.stat ()).Gc.live_words)

(* ---- pools ---------------------------------------------------------- *)

let make_pool jobs = if jobs <= 1 then None else Some (Pool.create ~domains:jobs ())
let close_pool = Option.iter Pool.shutdown

(* One timed set-up, from a collected heap: its wall and CPU time. *)
let timed_setup setup =
  Gc.full_major ();
  let c0 = cpu_now () and t0 = now () in
  let s = setup () in
  (now () -. t0, cpu_now () -. c0, s)

(* ---- tracing state -------------------------------------------------- *)

type tracer = {
  spans : Spans.t;
  shadow : Cache.t;  (** mirrors the server's cache for the lookup probes *)
  verbatim : (string, unit) Hashtbl.t;  (** mirrors the server's verbatim table *)
  mutable solve_phase : float;
  mutable batch_walls : float list;
  mutable alloc_words : float;  (** allocated inside the timed calls, all domains *)
  mutable major_gcs : int;
  mutable dispositions : (string * string) list list;  (** per batch: (cache, engine key) *)
}

let new_tracer () =
  {
    spans = Spans.create ();
    shadow = Cache.create ~capacity:Server.default_config.cache_capacity ();
    verbatim = Hashtbl.create 1024;
    solve_phase = 0.;
    batch_walls = [];
    alloc_words = 0.;
    major_gcs = 0;
    dispositions = [];
  }

let allocated (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words

(* A timed call into the program, in a span, with its allocation. *)
let traced_call tr name ~rid f =
  let g0 = Gc.quick_stat () in
  let r = Spans.span tr.spans name ~rid f in
  let g1 = Gc.quick_stat () in
  tr.alloc_words <- tr.alloc_words +. allocated g1 -. allocated g0;
  tr.major_gcs <- tr.major_gcs + g1.major_collections - g0.major_collections;
  r

let timer_of = function
  | None -> Verify.untimed
  | Some tr -> { Verify.time = (fun name f -> Spans.span tr.spans name ~rid:(-1) f) }

let t_serve_solve = Obs.timer "serve.solve"

(* Probes and checks run with telemetry off, so the program's counters
   only count the server's own work. *)
let quiet f =
  let was = Obs.enabled () in
  Obs.disable ();
  Fun.protect ~finally:(fun () -> if was then Obs.enable ()) f

let status_of_answer (a : Verify.answer) =
  match a.status with
  | "ok" ->
    Protocol.Solved
      {
        energy = a.energy;
        speeds = a.speeds;
        makespan = a.makespan;
        engine = a.engine;
        exact = a.exact;
        reexecuted = [];
      }
  | "infeasible" -> Protocol.Infeasible "infeasible"
  | _ -> Protocol.Rejected a.status

let disposition_of = function
  | "hit" -> Some Protocol.Hit
  | "rescale-hit" -> Some Protocol.Rescale_hit
  | "miss" -> Some Protocol.Cold
  | _ -> None

(* What [Es_lp.Problem] does before every simplex solve: densify the
   rows and build the sparse matrix. *)
let restate tr ~rid lp =
  Spans.span tr.spans "lp.restate" ~rid (fun () ->
      ignore
        (Es_lp.Sparse.of_rows ~obj:(Es_lp.Problem.objective_coeffs lp)
           (Es_lp.Problem.constraints lp)))

(* The server's front end, replayed call by call through the same
   public functions, each in its own span: parse, list scheduling,
   canonicalization, cache lookup (on the shadow cache) and rendering.
   A line the server answered from its verbatim table is only parsed
   and rendered, as in the server. *)
let probe tr ~rid (req : W.req) (a : Verify.answer) =
  let sp name f = Spans.span tr.spans name ~rid f in
  sp "probe" (fun () ->
      (match sp "protocol.parse" (fun () -> Protocol.parse_line req.line) with
      | Protocol.Malformed _ -> ()
      | Protocol.Request r ->
        if not (Hashtbl.mem tr.verbatim req.line) then begin
          let order = sp "protocol.resolve" (fun () -> Protocol.resolve_order r.inst) in
          let canon = sp "canon" (fun () -> Canon.of_instance ~order r.inst) in
          let found =
            sp "cache.lookup" (fun () -> Cache.lookup tr.shadow ~inst:r.inst ~order ~canon)
          in
          if found = None && a.cache = "miss" then begin
            Cache.insert tr.shadow ~inst:r.inst ~canon (status_of_answer a);
            Hashtbl.replace tr.verbatim req.line ()
          end;
          match r.inst.model, r.inst.rel with
          | Speed.Vdd_hopping levels, None when a.cache = "miss" ->
            let mapping = Protocol.resolve_mapping r.inst in
            let lp =
              sp "lp.build" (fun () -> Bicrit_vdd.lp ~deadline:r.inst.deadline ~levels mapping)
            in
            restate tr ~rid lp
          | _ -> ()
        end);
      let resp =
        {
          Protocol.rid = Json.Num (float_of_int rid);
          status = status_of_answer a;
          cache = disposition_of a.cache;
          self_check = None;
        }
      in
      ignore (sp "protocol.render" (fun () -> Protocol.render resp)))

(* ---- serve workloads ------------------------------------------------ *)

type session = {
  server : Server.t;
  pool : Pool.t option;
  gen : int -> W.req;
  warm : (W.req * string) array;  (** serve-repeat: the warm-up requests and responses *)
}

let config jobs = { Server.default_config with Server.jobs }

let rec chunks n = function
  | [] -> []
  | xs ->
    let head = List.filteri (fun i _ -> i < n) xs in
    let rest = List.filteri (fun i _ -> i >= n) xs in
    head :: chunks n rest

let setup_cold o () =
  let prefetch = Array.init (6 * W.cold_block) (W.cold_request ~seed:o.seed) in
  let gen i =
    if i < Array.length prefetch then prefetch.(i) else W.cold_request ~seed:o.seed i
  in
  {
    server = Server.create (config o.jobs);
    pool = make_pool o.jobs;
    gen;
    warm = [||];
  }

let setup_repeat o () =
  let bases = Array.init W.n_bases (W.repeat_base ~seed:o.seed) in
  let server = Server.create (config o.jobs) in
  let pool = make_pool o.jobs in
  let warm = Array.to_list bases @ W.scaled_copies bases in
  let lines = List.map (fun (r : W.req) -> r.line) warm in
  let responses = List.concat_map (Server.process_batch server ~pool) (chunks batch lines) in
  {
    server;
    pool;
    gen = W.repeat_request ~seed:o.seed bases;
    warm = Array.of_list (List.combine warm responses);
  }

let release s = close_pool s.pool

(* Answer checks for serve-repeat: every answer gets the schedule
   checks, and must reproduce the cold answer of the same instance (the
   base's, or for a scaled copy the memoized cold solve of that copy);
   misses also get the checks that re-derive the optimum. *)
type repeat_ref = {
  base_energy : float array;
  scaled_cold : (string, float option) Hashtbl.t;
}

let cold_energy (req : W.req) =
  match
    Solver.solve
      {
        Solver.mapping = Protocol.resolve_mapping req.inst;
        model = req.inst.model;
        deadline = req.inst.deadline;
        rel = req.inst.rel;
      }
  with
  | Ok a -> Some a.Solver.energy
  | Error _ -> None

let check_repeat rr tl ~tm (req : W.req) (a : Verify.answer) =
  let what = Printf.sprintf "repeat request (base %d)" req.base in
  let hit = a.cache = "hit" || a.cache = "rescale-hit" in
  let reference () =
    match req.variant with
    | W.Scaled -> (
      match Hashtbl.find_opt rr.scaled_cold req.line with
      | Some e -> e
      | None ->
        let e = cold_energy req in
        Hashtbl.replace rr.scaled_cold req.line e;
        e)
    | W.Fresh | W.Verbatim | W.Relabel -> Some rr.base_energy.(req.base)
  in
  match Verify.check ~tm ~deep:(not hit) req a with
  | Verify.Good _ as v when a.status = "ok" -> (
    if req.variant = W.Scaled && not hit then Hashtbl.replace rr.scaled_cold req.line (Some a.energy);
    match reference () with
    | Some e when Verify.close 1e-5 e a.energy -> record tl ~what v
    | Some e -> record tl ~what (Verify.Wrong (Printf.sprintf "%s energy %g, cold answer %g" a.cache a.energy e))
    | None -> record tl ~what (Verify.Wrong (a.cache ^ " on an instance whose cold solve fails")))
  | v -> record tl ~what v

let engine_of (r : W.req) =
  match r.kind with
  | W.Continuous -> "continuous"
  | W.Vdd -> "vdd"
  | W.Discrete ->
    (* [Solver.solve] runs branch and bound up to its default exact
       threshold of 14 tasks *)
    if Array.length r.inst.weights <= 14 then "discrete_bb" else "discrete_roundup"
  | W.Incremental -> "incremental"
  | W.Tri_continuous -> "tricrit_continuous"
  | W.Tri_vdd -> "tricrit_vdd"

type run = {
  walls : float list;  (** walls of the timed calls, newest first *)
  live_mb : float;  (** see [live_mb]; taken after [retain_at] operations *)
  latencies : float array;  (** one per operation *)
  ops : int;  (** operations answered: requests, or fronts *)
  measured : float;  (** program time, the sum of [walls] *)
  cpu : float;  (** CPU time of the process inside the timed calls *)
}

(* Closed loop: one client, one batch in flight.  The client builds
   and checks each batch outside the timed call. *)
let serve_loop ~seconds ~retain_at ~(sess : session) ~tracer ~between ~check =
  let walls = ref [] and measured = ref 0. and cpu = ref 0. and nb = ref 0 and live = ref None in
  while (!measured < seconds || !nb mod block_batches <> 0) && not (out_of_time ()) do
    let reqs = List.init batch (fun k -> sess.gen ((!nb * batch) + k)) in
    let lines = List.map (fun (r : W.req) -> r.line) reqs in
    let solve0 = Obs.timer_total t_serve_solve in
    let c0 = cpu_now () in
    let t0 = now () in
    let resps =
      match tracer with
      | None -> Server.process_batch sess.server ~pool:sess.pool lines
      | Some tr ->
        traced_call tr "server.batch" ~rid:!nb (fun () ->
            Server.process_batch sess.server ~pool:sess.pool lines)
    in
    let wall = now () -. t0 in
    cpu := !cpu +. (cpu_now () -. c0);
    walls := wall :: !walls;
    measured := !measured +. wall;
    let answers = List.map Verify.parse_response resps in
    (match tracer with
    | None -> List.iter2 check reqs answers
    | Some tr ->
      tr.solve_phase <- tr.solve_phase +. (Obs.timer_total t_serve_solve -. solve0);
      tr.batch_walls <- wall :: tr.batch_walls;
      tr.dispositions <-
        List.map2
          (fun (r : W.req) (a : Verify.answer) -> (a.cache, engine_of r))
          reqs answers
        :: tr.dispositions;
      quiet (fun () ->
          List.iteri (fun k (r, a) -> probe tr ~rid:((!nb * batch) + k) r a) (List.combine reqs answers);
          List.iter2 check reqs answers));
    incr nb;
    if !nb * batch = retain_at then live := Some (live_mb ());
    between ()
  done;
  (* a request's latency is the wall of its batch *)
  let latencies =
    Array.of_list (List.concat_map (fun w -> List.init batch (fun _ -> w)) !walls)
  in
  let live_mb = match !live with Some x -> x | None -> live_mb () in
  { walls = !walls; live_mb; latencies; ops = !nb * batch; measured = !measured; cpu = !cpu }

(* Mirror the server's warm-up into the tracer's shadow state. *)
let warm_tracer tr (sess : session) =
  Array.iter
    (fun ((req : W.req), resp) ->
      match Protocol.parse_line req.line with
      | Protocol.Malformed _ -> ()
      | Protocol.Request r ->
        let order = Protocol.resolve_order r.inst in
        let canon = Canon.of_instance ~order r.inst in
        let a = Verify.parse_response resp in
        if Cache.lookup tr.shadow ~inst:r.inst ~order ~canon = None then
          Cache.insert tr.shadow ~inst:r.inst ~canon (status_of_answer a);
        Hashtbl.replace tr.verbatim req.line ())
    sess.warm

(* ---- pareto-vdd-sweep ----------------------------------------------- *)

type pareto_session = { ppool : Pool.t option; case : int -> W.front_case }

let setup_pareto o () =
  let prefetch = Array.init (3 * Array.length W.front_sizes) (W.front_case ~seed:o.seed) in
  {
    ppool = make_pool o.jobs;
    case =
      (fun k -> if k < Array.length prefetch then prefetch.(k) else W.front_case ~seed:o.seed k);
  }

(* A front must have one point per deadline and be a Pareto front; a
   point of the first 25-deadline warm block must match a cold
   [Bicrit_vdd.energy], and one of the second an [Lp_cert]-certified
   cold solve of the LP. *)
let check_front tl ~tm k (c : W.front_case) (points : Pareto.point list) =
  let what = Printf.sprintf "front %d (n=%d)" k c.f_n in
  let energies = Array.of_list (List.map (fun (p : Pareto.point) -> p.energy) points) in
  let verdict =
    if Array.length energies <> W.front_points then
      Verify.Wrong (Printf.sprintf "%d points for %d deadlines" (Array.length energies) W.front_points)
    else if not (Pareto.is_front points) then Verify.Wrong "not a Pareto front"
    else
      let deadlines = Array.of_list c.f_deadlines in
      let disagrees i = Some (Printf.sprintf "point %d (D=%g) disagrees with the cold solve" i deadlines.(i)) in
      let cold i =
        match Bicrit_vdd.energy ~deadline:deadlines.(i) ~levels:W.vdd_levels c.f_mapping with
        | Some e when Verify.close 1e-5 e energies.(i) -> None
        | _ -> disagrees i
      in
      let certified i =
        match Verify.vdd_reference tm ~deadline:deadlines.(i) ~levels:W.vdd_levels c.f_mapping with
        | Ok (Some e) when Verify.close 1e-5 e energies.(i) -> None
        | Ok _ -> disagrees i
        | Error msg -> Some msg
      in
      match List.filter_map Fun.id [ cold 11; certified 37 ] with
      | [] -> Verify.Good { heuristic_ratio = None }
      | msg :: _ -> Verify.Wrong msg
  in
  record tl ~what verdict

let pareto_loop ~seconds ~retain_at ~(ps : pareto_session) ~tracer ~between ~tl =
  let walls = ref [] and measured = ref 0. and cpu = ref 0. and nf = ref 0 and live = ref None in
  let ncases = Array.length W.front_sizes in
  while (!measured < seconds || !nf mod ncases <> 0) && not (out_of_time ()) do
    let k = !nf in
    let c = ps.case k in
    let front () =
      Pareto.bicrit_vdd_front ?pool:ps.ppool ~levels:W.vdd_levels ~deadlines:c.f_deadlines
        c.f_mapping
    in
    let c0 = cpu_now () in
    let t0 = now () in
    let points =
      match tracer with
      | None -> front ()
      | Some tr -> traced_call tr "pareto.front" ~rid:!nf front
    in
    let wall = now () -. t0 in
    cpu := !cpu +. (cpu_now () -. c0);
    walls := wall :: !walls;
    measured := !measured +. wall;
    (match tracer with
    | None -> check_front tl ~tm:Verify.untimed k c points
    | Some tr ->
      tr.batch_walls <- wall :: tr.batch_walls;
      quiet (fun () ->
          List.iter
            (fun deadline ->
              let lp =
                Spans.span tr.spans "lp.build" ~rid:!nf (fun () ->
                    Bicrit_vdd.lp ~deadline ~levels:W.vdd_levels c.f_mapping)
              in
              restate tr ~rid:!nf lp)
            c.f_deadlines;
          check_front tl ~tm:(timer_of tracer) k c points));
    incr nf;
    if !nf = retain_at then live := Some (live_mb ());
    between ()
  done;
  let live_mb = match !live with Some x -> x | None -> live_mb () in
  { walls = !walls; live_mb; latencies = Array.of_list !walls; ops = !nf; measured = !measured; cpu = !cpu }

(* ---- per-layer metrics ---------------------------------------------- *)

let counter (snap : Obs.snapshot) name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name snap.counters))

let timer (snap : Obs.snapshot) name =
  match List.assoc_opt name snap.timers with
  | Some t -> (t.Obs.total, float_of_int t.Obs.count)
  | None -> (0., 0.)

let ratio a b = if b > 0. then a /. b else 0.
let geomean = function [] -> 0. | xs -> Stats.geometric_mean (Array.of_list xs)

(* Per-engine solve calls and walls: the server records one wall per
   request ([Server.samples]: lookups in request order, then misses in
   request order, per batch); a miss's wall is its own parse-to-lookup
   time plus its solve. *)
let engine_walls tr samples =
  let calls = Hashtbl.create 8 and busy = Hashtbl.create 8 in
  let samples = ref samples in
  let take () =
    match !samples with
    | (_, w) :: rest ->
      samples := rest;
      w
    | [] -> 0.
  in
  List.iter
    (fun disp ->
      List.iter (fun (cache, _) -> if cache = "hit" || cache = "rescale-hit" then ignore (take ())) disp;
      List.iter
        (fun (cache, engine) ->
          if cache = "miss" then begin
            let w = take () in
            Hashtbl.replace calls engine (1 + Option.value ~default:0 (Hashtbl.find_opt calls engine));
            Hashtbl.replace busy engine (w +. Option.value ~default:0. (Hashtbl.find_opt busy engine))
          end)
        disp)
    (List.rev tr.dispositions);
  let get tbl e d = Option.value ~default:d (Hashtbl.find_opt tbl e) in
  List.concat_map
    (fun e ->
      [
        m (Printf.sprintf "solver.%s.calls" e) "count" (float_of_int (get calls e 0));
        m (Printf.sprintf "solver.%s.busy_s" e) "s" (get busy e 0.);
      ])
    Verify.engines

let layer_metrics ~jobs ~tr ~(snap : Obs.snapshot) ~(tl : tally) ~engine ~overhead =
  let st = Spans.stats tr.spans in
  let span_stat name = Hashtbl.find_opt st name in
  let p50_us name =
    match span_stat name with Some s -> 1e6 *. quantile s.Spans.durations 0.5 | None -> 0.
  in
  let total name = match span_stat name with Some s -> s.Spans.total | None -> 0. in
  let self name = match span_stat name with Some s -> s.Spans.self | None -> 0. in
  let batch_s = List.fold_left ( +. ) 0. tr.batch_walls in
  let serving = span_stat "server.batch" <> None in
  let front_s = if serving then batch_s -. tr.solve_phase else 0. in
  let front_spans =
    List.fold_left (fun acc n -> acc +. total n) 0.
      [ "protocol.parse"; "protocol.resolve"; "canon"; "cache.lookup"; "protocol.render" ]
  in
  let c = counter snap in
  let requests = c "serve.requests" in
  let lp_busy, _ = timer snap "lp_solve" in
  let p1, _ = timer snap "simplex_phase1" in
  let p2, _ = timer snap "simplex_phase2" in
  let restate = total "lp.restate" in
  let bar_busy, bar_calls = timer snap "barrier_minimize" in
  let solve_busy = if serving then List.fold_left (fun a x -> if String.ends_with ~suffix:"busy_s" x.name then a +. x.value else a) 0. engine else lp_busy in
  let phase = if serving then tr.solve_phase else batch_s in
  [
    m "server.batch_s" "s" (if serving then batch_s else 0.);
    m "server.solve_phase_s" "s" (if serving then tr.solve_phase else 0.);
    m "server.front_s" "s" front_s;
    m "trace.front_coverage" "ratio" (ratio front_spans front_s);
    m "protocol.parse_us_p50" "us" (p50_us "protocol.parse");
    m "protocol.resolve_us_p50" "us" (p50_us "protocol.resolve");
    m "protocol.render_us_p50" "us" (p50_us "protocol.render");
    m "canon.us_p50" "us" (p50_us "canon");
    m "canon.busy_s" "s" (self "canon");
    m "cache.lookup_us_p50" "us" (p50_us "cache.lookup");
    m "cache.verbatim_hit" "count" (c "serve.cache.verbatim_hit");
    m "cache.hit" "count" (c "serve.cache.hit");
    m "cache.rescale_hit" "count" (c "serve.cache.rescale_hit");
    m "cache.rescale_reject" "count" (c "serve.cache.rescale_reject");
    m "cache.miss" "count" (c "serve.cache.miss");
    m "cache.insert" "count" (c "serve.cache.insert");
    m "cache.hit_ratio" "ratio"
      (ratio (c "serve.cache.verbatim_hit" +. c "serve.cache.hit" +. c "serve.cache.rescale_hit") requests);
  ]
  @ engine
  @ [
      m "solver.errors" "count" (float_of_int tl.failed);
      m "solver.heuristic_energy_ratio" "ratio" (geomean tl.ratios);
      m "barrier.calls" "count" bar_calls;
      m "barrier.busy_s" "s" bar_busy;
      m "barrier.newton_iters" "count" (c "barrier_newton_iters");
      m "barrier.centering_steps" "count" (c "barrier_centering_steps");
      m "lp.solves" "count" (c "lp_solves");
      m "lp.busy_s" "s" lp_busy;
      m "lp.restate_s" "s" restate;
      m "lp.phase1_s" "s" p1;
      m "lp.phase2_s" "s" p2;
      m "lp.other_s" "s" (lp_busy -. restate -. p1 -. p2);
      m "lp.phase1_pivots" "count" (c "simplex_phase1_pivots");
      m "lp.phase2_pivots" "count" (c "simplex_phase2_pivots");
      m "lp.dual_pivots" "count" (c "simplex_dual_pivots");
      m "lp.degenerate_pivots" "count" (c "simplex_degenerate_pivots");
      m "lp.refactorizations" "count" (c "simplex_refactorizations");
      m "lp.warm_starts" "count" (c "lp_warm_starts");
      m "lp.warm_cold_fallbacks" "count" (c "lp_warm_cold_fallbacks");
      m "discrete.nodes" "count" (c "bicrit_discrete_nodes");
      m "discrete.nodes_pruned" "count" (c "bicrit_discrete_nodes_pruned");
      m "par.idle_share" "ratio" (if phase > 0. then 1. -. (solve_busy /. (float_of_int jobs *. phase)) else 0.);
      m "par.chunk_tasks" "count" (c "par.chunk.tasks");
      m "par.parks" "count" (c "par.pool.parks");
      m "check.validate_us_p50" "us" (p50_us "check.validate");
      m "check.kkt_us_p50" "us" (p50_us "check.kkt");
      m "check.lp_cert_us_p50" "us" (p50_us "check.lp_cert");
      m "gc.alloc_mb" "MB" (words_mb tr.alloc_words);
      m "gc.major_collections" "count" (float_of_int tr.major_gcs);
      m "obs.trace_overhead" "ratio" overhead;
    ]

(* Traced wall of the leading operations over the mean untraced wall of
   the same operations, replayed once before and once after the traced
   run so that heap growth and host drift do not favour either side. *)
let trace_overhead ~before ~after ~traced =
  let arr l = Array.of_list (List.rev l) in
  let a = arr before and a' = arr after and b = arr traced in
  let k = min (Array.length b) (min (Array.length a) (Array.length a')) in
  let sum x = Array.fold_left ( +. ) 0. (Array.sub x 0 k) in
  if k = 0 then 0. else (2. *. sum b /. (sum a +. sum a')) -. 1.

let spans_path o =
  let dir = Filename.concat ".bench_build" "perfbench" in
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ ".bench_build"; dir ];
  Filename.concat dir (Printf.sprintf "spans-%s-%d.tsv" o.workload o.seed)

(* ---- running a workload ------------------------------------------- *)

(* Set-up repetitions: how many run before the loop (the last one is
   kept for the run), and how many more run after each operation of
   the loop (batch or front), outside its timed calls, each released at
   once.  setup_s is the median CPU time of them all.  The host's speed
   drifts over seconds: 25 millisecond set-ups in a row moved by half
   from one process to the next, while spread over the run they sample
   the same seconds as cpu_ms_per_op.  The cache warm-up of
   serve-repeat takes seconds, so it only runs before the loop. *)
let setup_reps = function
  | "serve-repeat" -> (3, 0)
  | "pareto-vdd-sweep" -> (10, 4)
  | _ -> (10, 1)

let serve_setup o =
  match o.workload with
  | "serve-repeat" -> setup_repeat o
  | _ -> setup_cold o

let serve_checker o tl ~tm (sess : session) =
  match o.workload with
  | "serve-repeat" ->
    let rr =
      {
        base_energy = Array.make W.n_bases Float.nan;
        scaled_cold = Hashtbl.create 256;
      }
    in
    (* the bases come first in the warm-up, so their energies are known
       before the scaled copies are checked against them *)
    Array.iter
      (fun ((req : W.req), resp) ->
        let a = Verify.parse_response resp in
        match req.variant with
        | W.Fresh ->
          record tl ~what:(Printf.sprintf "base %d" req.base) (Verify.check ~tm req a);
          rr.base_energy.(req.base) <- a.energy
        | W.Verbatim | W.Relabel | W.Scaled -> check_repeat rr tl ~tm req a)
      sess.warm;
    check_repeat rr tl ~tm
  | _ ->
    fun req a ->
      let what =
        Printf.sprintf "%s request, n=%d" (W.kind_name req.W.kind) (Array.length req.W.inst.weights)
      in
      record tl ~what (Verify.check ~tm req a)

(* What [run_workload] needs of a workload. *)
type 's workload = {
  setup : unit -> 's;
  release : 's -> unit;
  loop : seconds:float -> tracer:tracer option -> between:(unit -> unit) -> tally -> 's -> run;
  prepare : tracer -> 's -> unit -> metric list;
      (** before the traced loop; the thunk gives the per-engine metrics after it *)
  extras : run -> tally -> metric list;  (** printed, not gated *)
}

let failed_share tl = m "failed_share" "ratio" (ratio (float_of_int tl.failed) (float_of_int tl.attempted))

let serve o =
  {
    setup = serve_setup o;
    release;
    loop =
      (fun ~seconds ~tracer ~between tl sess ->
        (* 3 blocks of the cold mix; about a third of a repeat run *)
        let retain_at = if o.workload = "serve-repeat" then 20_000 else 3 * W.cold_block in
        let check = quiet (fun () -> serve_checker o tl ~tm:(timer_of tracer) sess) in
        serve_loop ~seconds ~retain_at ~sess ~tracer ~between ~check);
    prepare =
      (fun tr sess ->
        warm_tracer tr sess;
        let seen = List.length (Server.samples sess.server) in
        fun () -> engine_walls tr (List.filteri (fun i _ -> i >= seen) (Server.samples sess.server)));
    extras =
      (fun run tl ->
        [
          m "latency_p99_s" "s" (quantile run.latencies 0.99);
          failed_share tl;
          m "heuristic_energy_ratio" "ratio" (geomean tl.ratios);
        ]);
  }

let pareto o =
  {
    setup = setup_pareto o;
    release = (fun ps -> close_pool ps.ppool);
    loop =
      (fun ~seconds ~tracer ~between tl ps ->
        pareto_loop ~seconds ~retain_at:(Array.length W.front_sizes) ~ps ~tracer ~between ~tl);
    prepare = (fun tr _ () -> engine_walls tr []);
    extras =
      (fun run tl ->
        [
          m "points_per_s" "1/s" (float_of_int (run.ops * W.front_points) /. run.measured);
          failed_share tl;
        ]);
  }

let finish ~correct ~(tl : tally) ms =
  print_endline (json_line ~correct ~attempted:tl.attempted ~failed:tl.failed ms);
  if not correct then exit 1

let run_workload o wl =
  if not o.trace then begin
    let before, after = setup_reps o.workload in
    let setup_walls = ref [] and setup_cpus = ref [] in
    let setup () =
      let w, c, s = timed_setup wl.setup in
      setup_walls := w :: !setup_walls;
      setup_cpus := c :: !setup_cpus;
      s
    in
    let s = ref (setup ()) in
    for _ = 2 to before do
      wl.release !s;
      s := setup ()
    done;
    let s = !s in
    let between () =
      for _ = 1 to after do
        wl.release (setup ())
      done
    in
    let live0 = live_mb () in
    let tl = tally () in
    let run = wl.loop ~seconds:o.seconds ~tracer:None ~between tl s in
    let growth = run.live_mb -. live0 in
    wl.release s;
    let median l = Stats.median (Array.of_list l) in
    let e2e =
      [
        m "setup_s" "s" (median !setup_cpus);
        m "cpu_ms_per_op" "ms" (1e3 *. run.cpu /. float_of_int run.ops);
      ]
    in
    print_metrics
      ~header:(Printf.sprintf "%s seed %d: %d operations in %.2f s measured" o.workload o.seed run.ops run.measured)
      e2e;
    print_metrics ~header:"  (not gated)"
      (m "throughput_rps" "1/s" (float_of_int run.ops /. run.measured)
      :: m "setup_wall_s" "s" (median !setup_walls)
      :: m "heap_peak_mb" "MB" (heap_peak_mb ())
      :: m "heap_growth_mb" "MB" growth
      :: m "latency_p50_s" "s" (quantile run.latencies 0.5)
      :: m "latency_p90_s" "s" (quantile run.latencies 0.9)
      :: wl.extras run tl);
    finish ~correct:(tl.wrong = 0) ~tl e2e
  end
  else begin
    (* untraced references for the overhead, around the traced run *)
    let tl0 = tally () in
    let untraced () =
      let s = wl.setup () in
      let run = wl.loop ~seconds:(o.seconds /. 4.) ~tracer:None ~between:ignore tl0 s in
      wl.release s;
      run.walls
    in
    let before = untraced () in
    let s = wl.setup () in
    let tr = new_tracer () in
    let engine = wl.prepare tr s in
    let tl = tally () in
    Obs.reset ();
    Obs.enable ();
    let run = wl.loop ~seconds:o.seconds ~tracer:(Some tr) ~between:ignore tl s in
    Obs.disable ();
    let snap = Obs.snapshot () in
    let engine = engine () in
    wl.release s;
    let after = untraced () in
    let layers =
      layer_metrics ~jobs:o.jobs ~tr ~snap ~tl ~engine
        ~overhead:(trace_overhead ~before ~after ~traced:run.walls)
    in
    Spans.write tr.spans (spans_path o);
    print_metrics ~header:(Printf.sprintf "%s seed %d traced: %d operations" o.workload o.seed run.ops) layers;
    finish ~correct:(tl.wrong = 0 && tl0.wrong = 0) ~tl layers
  end

(* ---- self-test ------------------------------------------------------ *)

(* Digests of a short fixed prefix of a workload's trace (what the
   program is sent) and of the program's answers. *)
let digests ~workload ~seed ~jobs =
  let o = { workload; seed; seconds = 0.; trace = false; jobs } in
  match workload with
  | "pareto-vdd-sweep" ->
    let ps = setup_pareto o () in
    let c = ps.case 0 in
    let dag = Mapping.dag c.f_mapping in
    let trace =
      String.concat "|"
        [
          String.concat "," (List.map (Printf.sprintf "%h") c.f_deadlines);
          String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") (Dag.weights dag)));
          String.concat "," (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) (Dag.edges dag));
        ]
    in
    let points =
      Pareto.bicrit_vdd_front ?pool:ps.ppool ~levels:W.vdd_levels ~deadlines:c.f_deadlines c.f_mapping
    in
    close_pool ps.ppool;
    let answers = String.concat "," (List.map (fun (p : Pareto.point) -> Printf.sprintf "%h" p.energy) points) in
    (Digest.to_hex (Digest.string trace), Digest.to_hex (Digest.string answers))
  | _ ->
    let sess = serve_setup o () in
    let lines = List.init (2 * batch) (fun i -> (sess.gen i).W.line) in
    let resps = List.concat_map (Server.process_batch sess.server ~pool:sess.pool) (chunks batch lines) in
    release sess;
    let warm = Array.to_list sess.warm in
    let all_lines = List.map (fun ((r : W.req), _) -> r.line) warm @ lines in
    let all_resps = List.map snd warm @ resps in
    ( Digest.to_hex (Digest.string (String.concat "\n" all_lines)),
      Digest.to_hex (Digest.string (String.concat "\n" all_resps)) )

let self_test seed =
  let ok = ref true in
  let expect what b =
    Printf.printf "  %-58s %s\n%!" what (if b then "ok" else "FAILED");
    if not b then ok := false
  in
  List.iter
    (fun workload ->
      Printf.printf "%s\n%!" workload;
      let t1, r1 = digests ~workload ~seed ~jobs:esservd_jobs in
      let t2, r2 = digests ~workload ~seed ~jobs:esservd_jobs in
      let t3, _ = digests ~workload ~seed:(seed + 1) ~jobs:esservd_jobs in
      let t4, r4 = digests ~workload ~seed ~jobs:1 in
      expect "same seed: byte-identical trace" (t1 = t2);
      expect "same seed: identical response digest" (r1 = r2);
      expect "different seed: different trace" (t1 <> t3);
      expect "pool width 1 and 2: identical response digest" (t1 = t4 && r1 = r4))
    workloads;
  print_endline (if !ok then "self-test: passed" else "self-test: FAILED");
  if not !ok then exit 1

(* ---- known defects -------------------------------------------------- *)

(* TRI-CRIT VDD is not in the timed cold mix because some of its
   requests fail in the LP.  This sends [count] of them through the
   same server and reports every failed or wrong answer; it exits 1
   while the defect reproduces, so that the request class can go back
   into serve-cold-mix once it does not. *)
let known_defects ~seed ~count =
  let o = { workload = "serve-cold-mix"; seed; seconds = 0.; trace = false; jobs = esservd_jobs } in
  let sess = setup_cold o () in
  let reqs = List.init count (W.tri_vdd_request ~seed) in
  let tl = tally () in
  List.iter
    (fun batch_reqs ->
      let resps =
        Server.process_batch sess.server ~pool:sess.pool
          (List.map (fun (r : W.req) -> r.line) batch_reqs)
      in
      List.iter2
        (fun (r : W.req) resp ->
          let what =
            Printf.sprintf "tricrit_vdd request %d (n=%d, %d edges, %d procs)" tl.attempted
              (Array.length r.inst.weights) (List.length r.inst.edges) r.inst.procs
          in
          record tl ~what (Verify.check r (Verify.parse_response resp)))
        batch_reqs resps)
    (chunks batch reqs);
  release sess;
  Printf.printf "known-defects seed %d: %d of %d TRI-CRIT VDD requests failed, %d wrong\n"
    seed tl.failed tl.attempted tl.wrong;
  if tl.failed + tl.wrong > 0 then exit 1

(* ---- command line --------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: esbench --workload (serve-cold-mix|serve-repeat|pareto-vdd-sweep) --seed N \
     --seconds S --trace 0|1\n       esbench --self-test [--seed N]\n       \
     esbench --known-defects [--seed N] [--count K]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec get key = function
    | k :: v :: _ when k = key -> Some v
    | _ :: rest -> get key rest
    | [] -> None
  in
  let int_arg key default =
    match get key args with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some i -> i | None -> usage ())
  in
  if List.mem "--self-test" args then self_test (int_arg "--seed" 1)
  else if List.mem "--known-defects" args then
    known_defects ~seed:(int_arg "--seed" 1) ~count:(int_arg "--count" 240)
  else
    let workload = match get "--workload" args with Some w when List.mem w workloads -> w | _ -> usage () in
    let seconds =
      match Option.bind (get "--seconds" args) float_of_string_opt with
      | Some s when s > 0. -> s
      | _ -> usage ()
    in
    let o =
      {
        workload;
        seed = int_arg "--seed" 1;
        seconds;
        trace = int_arg "--trace" 0 = 1;
        jobs = esservd_jobs;
      }
    in
    if workload = "pareto-vdd-sweep" then run_workload o (pareto o) else run_workload o (serve o)
