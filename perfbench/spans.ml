(* In-memory span recorder for the traced run.

   A span is (name, start, end, parent, request id).  Spans are opened
   and closed by the benchmark around its own calls into the program's
   public functions, on the main domain only, and kept in growable
   arrays until the run ends. *)

type t = {
  mutable n : int;
  mutable name : int array;
  mutable parent : int array;
  mutable rid : int array;
  mutable t0 : Float.Array.t;
  mutable t1 : Float.Array.t;
  ids : (string, int) Hashtbl.t;
  mutable names : string list;  (* reversed *)
  mutable open_ : int list;  (* innermost first *)
}

let create () =
  let cap = 1024 in
  {
    n = 0;
    name = Array.make cap 0;
    parent = Array.make cap (-1);
    rid = Array.make cap 0;
    t0 = Float.Array.make cap 0.;
    t1 = Float.Array.make cap 0.;
    ids = Hashtbl.create 64;
    names = [];
    open_ = [];
  }

let intern t s =
  match Hashtbl.find_opt t.ids s with
  | Some i -> i
  | None ->
    let i = Hashtbl.length t.ids in
    Hashtbl.add t.ids s i;
    t.names <- s :: t.names;
    i

let grow t =
  let cap = 2 * Array.length t.name in
  let ints a fill = Array.init cap (fun i -> if i < t.n then a.(i) else fill) in
  let floats a = Float.Array.init cap (fun i -> if i < t.n then Float.Array.get a i else 0.) in
  t.name <- ints t.name 0;
  t.parent <- ints t.parent (-1);
  t.rid <- ints t.rid 0;
  t.t0 <- floats t.t0;
  t.t1 <- floats t.t1

let span t name ~rid f =
  if t.n = Array.length t.name then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.name.(i) <- intern t name;
  t.parent.(i) <- (match t.open_ with p :: _ -> p | [] -> -1);
  t.rid.(i) <- rid;
  t.open_ <- i :: t.open_;
  Float.Array.set t.t0 i (Unix.gettimeofday ());
  let finish () =
    Float.Array.set t.t1 i (Unix.gettimeofday ());
    t.open_ <- (match t.open_ with _ :: rest -> rest | [] -> [])
  in
  Fun.protect ~finally:finish f

let name_table t = Array.of_list (List.rev t.names)
let duration t i = Float.Array.get t.t1 i -. Float.Array.get t.t0 i

type stat = { total : float; self : float; durations : float array }

(* Per-name aggregates; a span's self time is its duration minus the
   durations of its direct children. *)
let stats t =
  let child = Array.make t.n 0. in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) +. duration t i
  done;
  let names = name_table t in
  let by_name = Array.map (fun _ -> ref []) names in
  let self = Array.map (fun _ -> ref 0.) names in
  for i = 0 to t.n - 1 do
    let k = t.name.(i) in
    by_name.(k) := duration t i :: !(by_name.(k));
    self.(k) := !(self.(k)) +. (duration t i -. child.(i))
  done;
  let tbl = Hashtbl.create 64 in
  Array.iteri
    (fun k name ->
      let durations = Array.of_list !(by_name.(k)) in
      Hashtbl.replace tbl name
        {
          total = Array.fold_left ( +. ) 0. durations;
          self = !(self.(k));
          durations;
        })
    names;
  tbl

(* One span per line, tab-separated: index, name, start and end in
   microseconds from the first span, parent index (-1 = root),
   request id. *)
let write t path =
  let names = name_table t in
  let origin = if t.n = 0 then 0. else Float.Array.get t.t0 0 in
  let us x = (x -. origin) *. 1e6 in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "# index\tname\tstart_us\tend_us\tparent\trequest\n";
      for i = 0 to t.n - 1 do
        Printf.fprintf oc "%d\t%s\t%.1f\t%.1f\t%d\t%d\n" i names.(t.name.(i))
          (us (Float.Array.get t.t0 i))
          (us (Float.Array.get t.t1 i))
          t.parent.(i) t.rid.(i)
      done)
