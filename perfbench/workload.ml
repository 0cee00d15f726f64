(* Seeded request generation for the benchmark workloads.

   The program only ever sees the rendered request lines; the
   benchmark keeps the instance it rendered beside each line so it can
   check the answer without trusting the server's parse.  Every random
   choice comes from an Rng keyed by (seed, stream, index), so a
   request depends only on the seed and its position, never on how
   many requests an earlier run consumed.

   The workload composition (model mix, size quantiles, slack
   quantiles, processor counts) is a fixed table per block of
   requests; the seed draws the graph structure, the weights and the
   order in which a block's requests are sent.  Stratifying the
   composition keeps the run-to-run spread down to what the graphs and
   their order contribute. *)

module Protocol = Es_serve.Protocol
module Json = Es_obs.Obs_json
module Rng = Es_util.Rng

type kind = Continuous | Vdd | Discrete | Incremental | Tri_continuous | Tri_vdd

type variant = Fresh | Verbatim | Relabel | Scaled

type req = {
  line : string;
  inst : Protocol.instance;
  kind : kind;
  feasible : bool;  (** deadline >= makespan with every task at fmax *)
  base : int;  (** serve-repeat: index of the base instance; -1 otherwise *)
  variant : variant;
}

let rng ~seed ~stream ~index = Rng.create ~seed:(Hashtbl.hash (seed, stream, index))

(* ---- speed models -------------------------------------------------- *)

let fmax = 1.0
let vdd_levels = [| 0.2; 0.4; 0.6; 0.8; 1.0 |]
let discrete_levels = [| 0.25; 0.5; 0.75; 1.0 |]
let frel = 0.8

let model_of_kind = function
  | Continuous | Tri_continuous -> Speed.continuous ~fmin:0.1 ~fmax
  | Vdd | Tri_vdd -> Speed.vdd_hopping vdd_levels
  | Discrete -> Speed.discrete discrete_levels
  | Incremental -> Speed.incremental ~fmin:0.2 ~fmax ~delta:0.1

let rel_of_kind kind model =
  match kind with
  | Tri_continuous | Tri_vdd ->
    Some (Rel.make ~frel ~fmin:(Speed.fmin model) ~fmax:(Speed.fmax model) ())
  | Continuous | Vdd | Discrete | Incremental -> None

let kind_name = function
  | Continuous -> "continuous"
  | Vdd -> "vdd"
  | Discrete -> "discrete"
  | Incremental -> "incremental"
  | Tri_continuous -> "tricrit_continuous"
  | Tri_vdd -> "tricrit_vdd"

(* ---- task graphs --------------------------------------------------- *)

let wlo = 1.
let whi = 10.

(* Exactly [n] tasks in [layers] consecutive layers; every task past the
   first layer has one predecessor in the previous layer plus each other
   task of that layer with probability [density]. *)
let layered rng ~n ~layers ~density =
  let layers = max 1 (min layers n) in
  let first l = l * n / layers in
  let weights = Array.init n (fun _ -> Rng.uniform_in rng wlo whi) in
  let edges = ref [] in
  for l = 1 to layers - 1 do
    let lo = first (l - 1) and hi = first l in
    for v = hi to first (l + 1) - 1 do
      let must = lo + Rng.int rng (hi - lo) in
      for u = lo to hi - 1 do
        if u = must || Rng.bernoulli rng density then edges := (u, v) :: !edges
      done
    done
  done;
  (weights, List.rev !edges)

let of_dag d = (Dag.weights d, Dag.edges d)

(* shape 0: layered, 1: series-parallel, 2: sparse random DAG *)
let graph rng ~shape ~n =
  match shape with
  | 0 ->
    let layers = max 2 (int_of_float (Float.round (sqrt (float_of_int n)))) in
    layered rng ~n ~layers ~density:0.3
  | 1 -> of_dag (Sp.to_dag (Generators.random_sp rng ~n ~wlo ~whi))
  | _ ->
    of_dag
      (Generators.random_dag rng ~n
         ~p:(Float.min 0.5 (3. /. float_of_int n))
         ~wlo ~whi)

(* ---- rendering ----------------------------------------------------- *)

let num x = Json.Num x
let nums xs = Json.List (Array.to_list (Array.map num xs))

let model_json (m : Speed.t) =
  let open Json in
  match m with
  | Speed.Continuous { fmin; fmax } ->
    Obj [ ("kind", Str "continuous"); ("fmin", num fmin); ("fmax", num fmax) ]
  | Speed.Vdd_hopping levels -> Obj [ ("kind", Str "vdd"); ("levels", nums levels) ]
  | Speed.Discrete levels -> Obj [ ("kind", Str "discrete"); ("levels", nums levels) ]
  | Speed.Incremental { fmin; fmax; delta } ->
    Obj
      [
        ("kind", Str "incremental");
        ("fmin", num fmin);
        ("fmax", num fmax);
        ("delta", num delta);
      ]

let render ~id (inst : Protocol.instance) =
  let open Json in
  let edge (a, b) = List [ num (float_of_int a); num (float_of_int b) ] in
  let rel =
    match inst.rel with
    | None -> []
    | Some r -> [ ("rel", Obj [ ("frel", num r.Rel.frel) ]) ]
  in
  to_compact_string
    (Obj
       ([
          ("id", num (float_of_int id));
          ("tasks", nums inst.weights);
          ("edges", List (List.map edge inst.edges));
          ("procs", num (float_of_int inst.procs));
          ("model", model_json inst.model);
          ("deadline", num inst.deadline);
        ]
       @ rel))

(* Makespan with every task at fmax under the mapping the server will
   resolve (list scheduling of the request's own graph). *)
let dmin (inst : Protocol.instance) =
  List_sched.makespan_at_speed (Protocol.resolve_mapping inst)
    ~f:(Speed.fmax inst.model)

let instance ~kind ~weights ~edges ~procs ~slack =
  let model = model_of_kind kind in
  let inst =
    {
      Protocol.weights;
      edges;
      procs;
      order = None;
      model;
      deadline = 1.;
      rel = rel_of_kind kind model;
    }
  in
  { inst with deadline = slack *. dmin inst }

let make ~id ~kind ~base ~variant ~feasible inst =
  { line = render ~id inst; inst; kind; feasible; base; variant }

(* ---- serve-cold-mix ------------------------------------------------ *)

(* One block of 40 requests.  The model table gives exactly 35 %
   CONTINUOUS, 30 % VDD, 15 % DISCRETE, 10 % INCREMENTAL and 10 %
   TRI-CRIT CONTINUOUS; sizes are the 40 quantiles of the log-uniform
   law over 8-64 (8-32 for TRI-CRIT), slacks the quantiles of
   U[1.1, 2.5], and two slots per block get an infeasible deadline.

   TRI-CRIT VDD is left out: about 1 in 120 of its requests answers
   "Lp.Revised: basis became singular during pivoting", and a timed
   workload must answer every operation.  [tri_vdd_request] generates
   them for the known-defect probe instead. *)
let cold_block = 40

let cold_models =
  [| Continuous; Vdd; Continuous; Discrete; Vdd; Continuous; Incremental;
     Tri_continuous; Continuous; Vdd; Discrete; Continuous; Continuous; Vdd;
     Continuous; Discrete; Incremental; Vdd; Tri_continuous; Vdd |]

let quantile k stride = float_of_int ((k * stride) mod cold_block) +. 0.5

(* Block [b] sends its 40 slots in a seeded shuffled order, as traffic
   would arrive: the composition of a block is fixed, the order in which
   its requests meet in batches is not. *)
let cold_order ~seed b =
  let order = Array.init cold_block Fun.id in
  Rng.shuffle (rng ~seed ~stream:5 ~index:b) order;
  order

(* Request [i], of model [kind], in slot [k] of a block: the slot sets
   the task count, the slack, the graph shape and the processor count. *)
let slot_request ~seed ~kind i k =
  let span = match kind with Tri_continuous | Tri_vdd -> 4. | _ -> 8. in
  let n = int_of_float (Float.round (8. *. (span ** (quantile k 17 /. float_of_int cold_block)))) in
  let feasible = not (k = 6 || k = 27) in
  let slack =
    if feasible then 1.1 +. (1.4 *. quantile k 7 /. float_of_int cold_block)
    else 0.85
  in
  let r = rng ~seed ~stream:1 ~index:i in
  let weights, edges = graph r ~shape:(k mod 3) ~n in
  let inst = instance ~kind ~weights ~edges ~procs:(2 + (k * 3 mod 5)) ~slack in
  make ~id:i ~kind ~base:(-1) ~variant:Fresh ~feasible inst

let cold_request ~seed i =
  let k = (cold_order ~seed (i / cold_block)).(i mod cold_block) in
  slot_request ~seed ~kind:cold_models.(k mod Array.length cold_models) i k

(* Request [i] of the known-defect probe: a TRI-CRIT VDD request in
   slot 12 or 19 (mod 20) of a block, where it goes back into
   [cold_models] once the probe passes. *)
let tri_vdd_slots = [| 12; 19; 32; 39 |]

let tri_vdd_request ~seed i = slot_request ~seed ~kind:Tri_vdd i tri_vdd_slots.(i mod 4)

(* ---- serve-repeat -------------------------------------------------- *)

let n_bases = 96

(* Even bases are VDD with n over 12-128, odd ones CONTINUOUS with
   n over 8-32 (small enough that the rescale path stays interior). *)
let repeat_base ~seed b =
  let q = (float_of_int (b / 2) +. 0.5) /. float_of_int (n_bases / 2) in
  let kind, n =
    if b mod 2 = 0 then (Vdd, 12. *. ((128. /. 12.) ** q)) else (Continuous, 8. *. (4. ** q))
  in
  let n = int_of_float (Float.round n) in
  let r = rng ~seed ~stream:2 ~index:b in
  let weights, edges = graph r ~shape:(b mod 3) ~n in
  let slack = 1.2 +. (1.2 *. float_of_int (b * 29 mod n_bases) /. float_of_int n_bases) in
  let inst = instance ~kind ~weights ~edges ~procs:(2 + (b mod 5)) ~slack in
  make ~id:b ~kind ~base:b ~variant:Fresh ~feasible:true inst

(* Zipf(1.1) over base ranks.  The rank -> base map spreads ranks over
   the sizes and turns by one base every 40 requests (five batches):
   at any moment the traffic is skewed, but over a run every base holds
   every rank about equally often, so the run's cost averages over all
   96 graphs.  With a fixed map, the quarter of the traffic that goes to
   the hottest base made throughput follow how costly the seed made
   that one graph to canonicalize (0.34 quartile spread over 5 seeds). *)
let zipf_cdf =
  let w = Array.init n_bases (fun r -> 1. /. (float_of_int (r + 1) ** 1.1)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_rank r =
  let u = Rng.float r 1. in
  let rec go k = if k >= n_bases - 1 || u <= zipf_cdf.(k) then k else go (k + 1) in
  go 0

let rank_to_base ~turn rank = ((rank * 37) + turn) mod n_bases

let scale_grid = [| (2.0, 1.25); (0.5, 0.8); (1.5, 1.0); (1.0, 1.5) |]

let relabel r (inst : Protocol.instance) =
  let n = Array.length inst.weights in
  let perm = Array.init n Fun.id in
  Rng.shuffle r perm;
  let weights = Array.make n 0. in
  Array.iteri (fun i w -> weights.(perm.(i)) <- w) inst.weights;
  let edges = List.map (fun (a, b) -> (perm.(a), perm.(b))) inst.edges in
  { inst with weights; edges }

(* A CONTINUOUS base with work x c and deadline x d.  Its id is fixed
   per base, so a repeated scaled line is byte-identical. *)
let scaled_copy (base : req) (c, d) =
  let inst =
    {
      base.inst with
      weights = Array.map (fun w -> w *. c) base.inst.weights;
      deadline = base.inst.deadline *. d;
    }
  in
  make ~id:(base.base * 10) ~kind:base.kind ~base:base.base ~variant:Scaled
    ~feasible:(inst.deadline >= dmin inst) inst

(* Every scaled copy the trace can send.  Set-up sends them after the
   bases, so that the copies the rescale law rejects are solved cold
   there: otherwise those barrier solves all fall in the first seconds
   of the timed run, which then answered 800-1500 requests per second
   against 2500 later. *)
let scaled_copies (bases : req array) =
  List.concat_map
    (fun (base : req) ->
      if base.kind = Continuous then List.map (scaled_copy base) (Array.to_list scale_grid) else [])
    (Array.to_list bases)

(* Request [j] of the timed trace: 40 % byte-verbatim repeats, 40 %
   relabeled copies (canonizer path), 20 % uniformly scaled copies for
   CONTINUOUS bases (rescale path; relabeled for VDD bases). *)
let repeat_request ~seed (bases : req array) j =
  let r = rng ~seed ~stream:3 ~index:j in
  let b = rank_to_base ~turn:(j / 40) (zipf_rank r) in
  let base = bases.(b) in
  let id = n_bases + j in
  let relabeled () =
    make ~id ~kind:base.kind ~base:b ~variant:Relabel ~feasible:true (relabel r base.inst)
  in
  match j mod 10 with
  | 0 | 1 | 2 | 3 -> { base with variant = Verbatim }
  | 8 | 9 when base.kind = Continuous ->
    scaled_copy base scale_grid.(Rng.int r (Array.length scale_grid))
  | _ -> relabeled ()

(* ---- pareto-vdd-sweep ---------------------------------------------- *)

type front_case = {
  f_mapping : Mapping.t;
  f_deadlines : float list;
  f_n : int;
}

(* Front [k] is a fresh layered DAG whose size cycles through
   [front_sizes], so a run averages over many graphs of each size. *)
let front_sizes = [| 100; 140; 180; 220 |]
let front_points = 50

(* Five layers, list-scheduled on 4 processors (bottom level), solved
   with the five VDD levels; 50 deadlines evenly spaced from 1.02x to
   3x the all-fmax makespan, i.e. two warm blocks of 25. *)
let front_case ~seed k =
  let n = front_sizes.(k mod Array.length front_sizes) in
  let r = rng ~seed ~stream:4 ~index:k in
  let weights, edges = layered r ~n ~layers:5 ~density:0.1 in
  let dag = Dag.make ?labels:None ~weights ~edges in
  let mapping = List_sched.schedule dag ~p:4 ~priority:List_sched.Bottom_level in
  let d0 = List_sched.makespan_at_speed mapping ~f:fmax in
  let deadlines =
    List.init front_points (fun i ->
        d0 *. (1.02 +. (1.98 *. float_of_int i /. float_of_int (front_points - 1))))
  in
  { f_mapping = mapping; f_deadlines = deadlines; f_n = n }
