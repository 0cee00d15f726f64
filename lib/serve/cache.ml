module Obs = Es_obs.Obs

type key = Line of string | Exact of string | Scaled of string

(* A scale-covariant optimum: canonical-order speeds together with the
   total work and deadline of the instance they solve. *)
type optimum = { speeds : float array; w0 : float; d0 : float; engine : string }

(* [Line] keys map to an outcome in the request's labels, [Exact] keys
   to an outcome in canonical task order, [Scaled] keys to an
   optimum. *)
type entry = Outcome of Protocol.status | Optimum of optimum

type t = {
  capacity : int;
  entries : (key, entry) Hashtbl.t;
  fifo : key Queue.t;  (** insertion order, oldest first *)
}

let c_hit = Obs.counter "serve.cache.hit"
let c_verbatim = Obs.counter "serve.cache.verbatim_hit"
let c_miss = Obs.counter "serve.cache.miss"
let c_rescale_hit = Obs.counter "serve.cache.rescale_hit"
let c_rescale_reject = Obs.counter "serve.cache.rescale_reject"
let c_insert = Obs.counter "serve.cache.insert"
let c_evict = Obs.counter "serve.cache.evict"

let create ?(capacity = 4096) () =
  { capacity = max 1 capacity; entries = Hashtbl.create 64; fifo = Queue.create () }

let add t key entry =
  if Hashtbl.mem t.entries key then Hashtbl.replace t.entries key entry
  else begin
    if Queue.length t.fifo >= t.capacity then begin
      match Queue.take_opt t.fifo with
      | Some old ->
        Hashtbl.remove t.entries old;
        Obs.incr c_evict
      | None -> ()
    end;
    Hashtbl.add t.entries key entry;
    Queue.add key t.fifo;
    Obs.incr c_insert
  end

(* Relabel an outcome: task [i] becomes task [perm.(i)].  Scalars
   (energy, makespan) are label-invariant. *)
let permute perm (s : Protocol.solved) =
  let speeds = Array.make (Array.length perm) 0. in
  Array.iteri (fun i p -> speeds.(p) <- s.speeds.(i)) perm;
  let reexecuted = List.sort Int.compare (List.map (fun i -> perm.(i)) s.reexecuted) in
  { s with speeds; reexecuted }

let inverse perm =
  let inv = Array.make (Array.length perm) 0 in
  Array.iteri (fun i p -> inv.(p) <- i) perm;
  inv

(* Strict interiority w.r.t. the speed bounds: all Lagrange
   multipliers of the bound constraints are zero, so the cached point
   is the unbounded optimum and rescales covariantly. *)
let interior ~fmin ~fmax speeds =
  let margin = 1e-4 in
  Array.for_all
    (fun s -> s > fmin *. (1. +. margin) && s < fmax *. (1. -. margin))
    speeds

type found = {
  status : Protocol.status;
  disposition : Protocol.disposition;
}

let insert t ~(inst : Protocol.instance) ~(canon : Canon.t)
    (status : Protocol.status) =
  match status with
  | Protocol.Solved s -> (
    let c = permute canon.perm s in
    add t (Exact canon.exact_key) (Outcome (Protocol.Solved c));
    match (canon.scaled_key, inst.model, s.reexecuted) with
    | Some key, Speed.Continuous { fmin; fmax }, []
      when s.exact
           && interior ~fmin ~fmax s.speeds
           && canon.total_work > 0.
           && inst.deadline > 0. ->
      add t (Scaled key)
        (Optimum
           { speeds = c.speeds; w0 = canon.total_work; d0 = inst.deadline; engine = s.engine })
    | _ -> ())
  | Protocol.Infeasible _ | Protocol.Rejected _ ->
    add t (Exact canon.exact_key) (Outcome status)
  | Protocol.Shed _ | Protocol.Over_budget _ -> ()

let find_line t line =
  match Hashtbl.find_opt t.entries (Line line) with
  | Some (Outcome status) ->
    Obs.incr c_verbatim;
    Some status
  | Some (Optimum _) | None -> None

let add_line t line (status : Protocol.status) =
  match status with
  | Protocol.Solved _ | Protocol.Infeasible _ | Protocol.Rejected _ ->
    add t (Line line) (Outcome status)
  | Protocol.Shed _ | Protocol.Over_budget _ -> ()

let try_rescale ~(inst : Protocol.instance) ~order ~(canon : Canon.t) o =
  if canon.total_work <= 0. || inst.deadline <= 0. then None
  else begin
    let factor = canon.total_work /. o.w0 /. (inst.deadline /. o.d0) in
    let n = Array.length inst.weights in
    let speeds = Array.init n (fun i -> o.speeds.(canon.perm.(i)) *. factor) in
    match
      let mapping = Mapping.make ~p:(Array.length order) (Protocol.dag inst) ~order in
      let sched = Schedule.of_speeds mapping ~speeds in
      match
        Validate.check ~deadline:inst.deadline ?rel:inst.rel ~model:inst.model
          sched
      with
      | [] -> Some (Protocol.solved_of_schedule ~engine:o.engine ~exact:true sched)
      | _ :: _ -> None
    with
    | exception Invalid_argument _ -> None
    | None -> None
    | Some solved ->
      Some { status = Protocol.Solved solved; disposition = Protocol.Rescale_hit }
  end

let lookup t ~(inst : Protocol.instance) ~order ~(canon : Canon.t) =
  match Hashtbl.find_opt t.entries (Exact canon.exact_key) with
  | Some (Outcome status) ->
    Obs.incr c_hit;
    let status =
      match status with
      | Protocol.Solved c -> Protocol.Solved (permute (inverse canon.perm) c)
      | status -> status
    in
    Some { status; disposition = Protocol.Hit }
  | Some (Optimum _) | None -> (
    let rescaled =
      match Option.bind canon.scaled_key (fun key -> Hashtbl.find_opt t.entries (Scaled key)) with
      | Some (Optimum o) -> (
        match try_rescale ~inst ~order ~canon o with
        | Some f ->
          Obs.incr c_rescale_hit;
          Some f
        | None ->
          Obs.incr c_rescale_reject;
          None)
      | Some (Outcome _) | None -> None
    in
    match rescaled with
    | Some f -> Some f
    | None ->
      Obs.incr c_miss;
      None)
