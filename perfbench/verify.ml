(* Output checks, run outside the timed region.

   Every answer is judged against the instance the benchmark rendered,
   not against the server's parse of it:

   - "ok" on a deadline below the all-fmax makespan, or "infeasible"
     on one above it, is wrong;
   - a BI-CRIT answer carries one effective speed per task, which is
     the whole schedule for every model but VDD-HOPPING, so it is
     re-validated with [Validate.check] and its energy recomputed; a
     VDD answer is validated for deadline and speed range, and its
     energy may not be below that of running each task at its
     effective speed (mixing levels costs at least that, by convexity);
   - an exact CONTINUOUS answer must pass [Kkt.check_general];
   - an exact VDD answer must match an [Lp_cert]-certified solve of
     [Bicrit_vdd.lp] (energy rtol 1e-5);
   - a TRI-CRIT answer must meet the deadline and cost no less than the
     CONTINUOUS BI-CRIT optimum, which bounds it from below.

   [~deep:false] keeps the schedule checks and skips the ones that
   re-derive the optimum (KKT, certified LP, lower bounds): for a cache
   hit, comparing with the cold answer's energy already covers them.

   An "error", "shed" or "over-budget" response is a failed operation,
   never a wrong one, and is never filtered out. *)

module Json = Es_obs.Obs_json
module Protocol = Es_serve.Protocol
module Kkt = Es_check.Kkt
module Lp_cert = Es_check.Lp_cert
module Problem = Es_lp.Problem

type timer = { time : 'a. string -> (unit -> 'a) -> 'a }

let untimed = { time = (fun _ f -> f ()) }

type answer = {
  status : string;
  error : string;  (** the message of a non-ok response *)
  cache : string;
  engine : string;
  exact : bool;
  energy : float;
  makespan : float;
  speeds : float array;
}

let parse_response line =
  let j = Json.of_string line in
  let str k = match Json.member k j with Some (Json.Str s) -> s | _ -> "" in
  let num k = match Json.member k j with Some (Json.Num x) -> x | _ -> Float.nan in
  {
    status = str "status";
    error = str "error";
    cache = str "cache";
    engine = str "engine";
    exact = (match Json.member "exact" j with Some (Json.Bool b) -> b | _ -> false);
    energy = num "energy";
    makespan = num "makespan";
    speeds =
      (match Json.member "speeds" j with
      | Some (Json.List xs) ->
        Array.of_list (List.map (function Json.Num x -> x | _ -> Float.nan) xs)
      | _ -> [||]);
  }

type verdict =
  | Good of { heuristic_ratio : float option }
  | Failed of string  (** error, shed or over-budget response *)
  | Wrong of string

let close rtol a b = Float.abs (a -. b) <= rtol *. Float.max 1e-12 (Float.max (Float.abs a) (Float.abs b))

(* The engine families of the per-layer solver metrics: those the timed
   workloads send (TRI-CRIT VDD only goes to the known-defect probe). *)
let engines =
  [ "continuous"; "vdd"; "discrete_bb"; "discrete_roundup"; "incremental";
    "tricrit_continuous" ]

let lower_bound ~deadline (model : Speed.t) mapping =
  Bicrit_continuous.energy_lower_bound ~deadline ~fmin:(Speed.fmin model)
    ~fmax:(Speed.fmax model) mapping

(* Certified reference optimum of the VDD-HOPPING LP. *)
let vdd_reference tm ~deadline ~levels mapping =
  let lp = Bicrit_vdd.lp ~deadline ~levels mapping in
  match tm.time "check.lp_resolve" (fun () -> Problem.solve lp) with
  | Problem.Solution s -> (
    match tm.time "check.lp_cert" (fun () -> Lp_cert.certify_problem lp s) with
    | Lp_cert.Certified _ -> Ok (Some (Problem.objective s))
    | Lp_cert.Rejected _ as v -> Error ("reference LP not certified: " ^ Lp_cert.describe v))
  | Problem.Infeasible -> Ok None
  | Problem.Unbounded -> Error "reference LP unbounded"

let check_solved ~deep tm (req : Workload.req) mapping (a : answer) =
  let inst = req.inst in
  let deadline = inst.deadline in
  let n = Array.length inst.weights in
  let wrong fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let ( let* ) = Result.bind in
  let* () =
    if Array.length a.speeds = n && Array.for_all (fun f -> f > 0.) a.speeds then Ok ()
    else wrong "malformed speeds"
  in
  let* () =
    if a.makespan <= deadline *. (1. +. 1e-6) then Ok ()
    else wrong "makespan %g exceeds deadline %g" a.makespan deadline
  in
  match inst.rel with
  | Some _ when not deep -> Ok None
  | Some _ ->
    let lb = lower_bound ~deadline inst.model mapping in
    if a.energy >= lb *. (1. -. 1e-5) then Ok (if a.exact then None else Some (a.energy /. lb))
    else wrong "TRI-CRIT energy %g below the BI-CRIT lower bound %g" a.energy lb
  | None -> (
    let sched = Schedule.of_speeds mapping ~speeds:a.speeds in
    (* a VDD effective speed is a mix of levels: validate its range *)
    let model =
      match inst.model with
      | Speed.Vdd_hopping _ as v -> Speed.continuous ~fmin:(Speed.fmin v) ~fmax:(Speed.fmax v)
      | m -> m
    in
    let* () =
      match tm.time "check.validate" (fun () -> Validate.check ~deadline ~model sched) with
      | [] -> Ok ()
      | v :: _ -> wrong "invalid schedule: %s" (Validate.explain (Mapping.dag mapping) v)
    in
    let* () =
      let e = Schedule.energy sched in
      match inst.model with
      | Speed.Vdd_hopping _ ->
        if a.energy >= e *. (1. -. 1e-6) then Ok ()
        else wrong "VDD energy %g below that of its effective speeds (%g)" a.energy e
      | _ -> if close 1e-6 e a.energy then Ok () else wrong "energy %g disagrees with its speeds (%g)" a.energy e
    in
    match inst.model with
    | _ when not deep -> Ok None
    | Speed.Continuous { fmin; fmax } when a.exact -> (
      let lo = Array.make n fmin and hi = Array.make n fmax in
      let r = { Bicrit_continuous.speeds = a.speeds; energy = a.energy } in
      match tm.time "check.kkt" (fun () -> Kkt.check_general ~deadline ~lo ~hi mapping r) with
      | Kkt.Ok -> Ok None
      | Kkt.Violation msg -> wrong "KKT: %s" msg)
    | Speed.Vdd_hopping levels when a.exact -> (
      match vdd_reference tm ~deadline ~levels mapping with
      | Ok (Some e) when close 1e-5 e a.energy -> Ok None
      | Ok (Some e) -> wrong "VDD energy %g, certified optimum %g" a.energy e
      | Ok None -> wrong "solved, but the certified LP is infeasible"
      | Error msg -> Error msg)
    | _ when a.exact -> Ok None
    | _ -> Ok (Some (a.energy /. lower_bound ~deadline inst.model mapping)))

let check ?(tm = untimed) ?(deep = true) (req : Workload.req) (a : answer) =
  match a.status with
  | "ok" when not req.feasible -> Wrong "answered a deadline below the all-fmax makespan"
  | "ok" -> (
    match check_solved ~deep tm req (Protocol.resolve_mapping req.inst) a with
    | Ok heuristic_ratio -> Good { heuristic_ratio }
    | Error msg -> Wrong msg)
  | "infeasible" when req.feasible -> Wrong "feasible deadline reported infeasible"
  | "infeasible" -> Good { heuristic_ratio = None }
  | status -> Failed (status ^ ": " ^ a.error)
