exception Not_positive_definite

(* L is stored column-compressed in permuted indices: column [k] holds
   rows [rowidx.(colptr.(k)) ..] with the diagonal first and the
   strictly-lower rows after it in increasing order.  The row lists
   ([rowptr]/[rowcol]/[rowpos]) index the same storage by row: row [k]
   of L has a nonzero in column [rowcol.(r)] at slot [rowpos.(r)], for
   [r] in [rowptr.(k) .. rowptr.(k+1) − 1], columns increasing. *)
type symbolic = {
  n : int;
  perm : int array; (* elimination position -> original index *)
  pinv : int array; (* original index -> elimination position *)
  colptr : int array;
  rowidx : int array;
  rowptr : int array;
  rowcol : int array;
  rowpos : int array;
}

type t = { sym : symbolic; lx : float array; work : float array }

(* Deduplicated adjacency of the clique union, self-loops dropped. *)
let adjacency ~n cliques =
  let lists = Array.make n [] in
  Array.iter
    (fun c ->
      Array.iter
        (fun i ->
          if i < 0 || i >= n then invalid_arg "Sparse_chol.analyze: index out of range";
          Array.iter (fun j -> if j <> i then lists.(i) <- j :: lists.(i)) c)
        c)
    cliques;
  let mark = Array.make n (-1) in
  Array.mapi
    (fun i l ->
      mark.(i) <- i;
      let out = ref [] in
      List.iter
        (fun j ->
          if mark.(j) <> i then begin
            mark.(j) <- i;
            out := j :: !out
          end)
        l;
      Array.of_list !out)
    lists

(* Minimum-degree ordering by explicit elimination: the vertex of least
   current degree (lowest index on ties) is eliminated next and its
   neighbours become a clique.  The neighbours a vertex has when it is
   eliminated are exactly the strictly-lower rows of its column of L,
   so the ordering and the symbolic factor come out of one pass.
   [adj.(u)] only ever holds vertices not yet eliminated. *)
let min_degree ~n adj =
  let alive = Array.make n true in
  let mark = Array.make n (-1) in
  let stamp = ref 0 in
  let order = Array.make n 0 in
  let below = Array.make n [||] in
  for k = 0 to n - 1 do
    let v = ref (-1) in
    for u = 0 to n - 1 do
      if alive.(u) && (!v < 0 || Array.length adj.(u) < Array.length adj.(!v)) then v := u
    done;
    let v = !v in
    let nbrs = adj.(v) in
    alive.(v) <- false;
    order.(k) <- v;
    below.(v) <- nbrs;
    adj.(v) <- [||];
    Array.iter
      (fun u ->
        incr stamp;
        let out = ref [] in
        mark.(v) <- !stamp;
        mark.(u) <- !stamp;
        Array.iter
          (fun w ->
            if mark.(w) <> !stamp then begin
              mark.(w) <- !stamp;
              out := w :: !out
            end)
          adj.(u);
        Array.iter
          (fun w ->
            if mark.(w) <> !stamp then begin
              mark.(w) <- !stamp;
              out := w :: !out
            end)
          nbrs;
        adj.(u) <- Array.of_list (List.rev !out))
      nbrs
  done;
  (order, below)

let analyze ~n cliques =
  let order, below = min_degree ~n (adjacency ~n cliques) in
  let pinv = Array.make n 0 in
  Array.iteri (fun k v -> pinv.(v) <- k) order;
  let cols =
    Array.map
      (fun v ->
        let rows = Array.map (fun u -> pinv.(u)) below.(v) in
        Array.sort Int.compare rows;
        rows)
      order
  in
  let colptr = Array.make (n + 1) 0 in
  Array.iteri (fun k rows -> colptr.(k + 1) <- colptr.(k) + 1 + Array.length rows) cols;
  let nnz = colptr.(n) in
  let rowidx = Array.make nnz 0 in
  let row_count = Array.make n 0 in
  Array.iteri
    (fun k rows ->
      rowidx.(colptr.(k)) <- k;
      Array.iteri
        (fun q i ->
          rowidx.(colptr.(k) + 1 + q) <- i;
          row_count.(i) <- row_count.(i) + 1)
        rows)
    cols;
  let rowptr = Array.make (n + 1) 0 in
  for k = 0 to n - 1 do
    rowptr.(k + 1) <- rowptr.(k) + row_count.(k)
  done;
  let off_diag = nnz - n in
  let rowcol = Array.make off_diag 0 and rowpos = Array.make off_diag 0 in
  let fill = Array.sub rowptr 0 n in
  for j = 0 to n - 1 do
    for q = colptr.(j) + 1 to colptr.(j + 1) - 1 do
      let i = rowidx.(q) in
      rowcol.(fill.(i)) <- j;
      rowpos.(fill.(i)) <- q;
      fill.(i) <- fill.(i) + 1
    done
  done;
  { n; perm = order; pinv; colptr; rowidx; rowptr; rowcol; rowpos }

let perm s = Array.copy s.perm
let nnz s = s.colptr.(s.n)

let slot s i j =
  let a = s.pinv.(i) and b = s.pinv.(j) in
  let col = min a b and row = max a b in
  if row = col then s.colptr.(col)
  else begin
    (* binary search among the strictly-lower rows of [col] *)
    let lo = ref (s.colptr.(col) + 1) and hi = ref (s.colptr.(col + 1) - 1) in
    let found = ref (-1) in
    while !found < 0 && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let r = s.rowidx.(mid) in
      if r = row then found := mid else if r < row then lo := mid + 1 else hi := mid - 1
    done;
    if !found < 0 then raise Not_found;
    !found
  end

let create sym = { sym; lx = Array.make (nnz sym) 0.; work = Array.make sym.n 0. }
let clear t = Array.fill t.lx 0 (Array.length t.lx) 0.
let add t k v = t.lx.(k) <- t.lx.(k) +. v

(* Left-looking column Cholesky.  Column k is scattered into the dense
   work vector, updated by every earlier column j with L[k,j] ≠ 0 (the
   row list of k), scaled by the pivot and gathered back.  Column j's
   rows at or below k all lie in column k's pattern — the elimination
   graph is closed under that — so the work vector only ever holds
   column k's rows and is all-zero between columns. *)
let factorize t =
  let s = t.sym and lx = t.lx and x = t.work in
  let colptr = s.colptr and rowidx = s.rowidx in
  for k = 0 to s.n - 1 do
    let c0 = colptr.(k) and c1 = colptr.(k + 1) in
    for q = c0 to c1 - 1 do
      x.(rowidx.(q)) <- lx.(q)
    done;
    for r = s.rowptr.(k) to s.rowptr.(k + 1) - 1 do
      let j = s.rowcol.(r) and p = s.rowpos.(r) in
      let lkj = lx.(p) in
      for q = p to colptr.(j + 1) - 1 do
        let i = rowidx.(q) in
        x.(i) <- x.(i) -. (lx.(q) *. lkj)
      done
    done;
    let d = x.(k) in
    if not (d > 0.) then begin
      for q = c0 to c1 - 1 do
        x.(rowidx.(q)) <- 0.
      done;
      raise Not_positive_definite
    end;
    let l = sqrt d in
    lx.(c0) <- l;
    x.(k) <- 0.;
    for q = c0 + 1 to c1 - 1 do
      let i = rowidx.(q) in
      lx.(q) <- x.(i) /. l;
      x.(i) <- 0.
    done
  done

let solve t b =
  let s = t.sym and lx = t.lx in
  let colptr = s.colptr and rowidx = s.rowidx in
  let y = Array.make s.n 0. in
  for k = 0 to s.n - 1 do
    y.(k) <- b.(s.perm.(k))
  done;
  (* L y' = P b *)
  for j = 0 to s.n - 1 do
    let c0 = colptr.(j) in
    let yj = y.(j) /. lx.(c0) in
    y.(j) <- yj;
    for q = c0 + 1 to colptr.(j + 1) - 1 do
      let i = rowidx.(q) in
      y.(i) <- y.(i) -. (lx.(q) *. yj)
    done
  done;
  (* Lᵀ z = y' *)
  for j = s.n - 1 downto 0 do
    let c0 = colptr.(j) in
    let acc = ref y.(j) in
    for q = c0 + 1 to colptr.(j + 1) - 1 do
      acc := !acc -. (lx.(q) *. y.(rowidx.(q)))
    done;
    y.(j) <- !acc /. lx.(c0)
  done;
  let x = Array.make s.n 0. in
  for i = 0 to s.n - 1 do
    x.(i) <- y.(s.pinv.(i))
  done;
  x

let iter_l t f =
  let s = t.sym in
  for j = 0 to s.n - 1 do
    for q = s.colptr.(j) to s.colptr.(j + 1) - 1 do
      f s.rowidx.(q) j t.lx.(q)
    done
  done
