module Vclock = Rdt_dist.Vclock

type node = int

type t = {
  pat : Pattern.t;
  offsets : int array; (* offsets.(i) = node id of C_{i,0} *)
  num_nodes : int;
  first : int array; (* successors of v: adj.(first.(v)) .. adj.(first.(v+1) - 1) *)
  adj : int array; (* each slice sorted and distinct; unused tail *)
  mutable scc : (int array * int array * bool array) option;
      (* node -> scc id, nodes by ascending scc id, scc id -> cycle flag *)
  mutable max_src : Vclock.t array option; (* scc id -> max-source vector *)
}

let num_nodes g = g.num_nodes

let node_of_ckpt g (i, x) =
  if not (Pattern.has_ckpt g.pat (i, x)) then
    invalid_arg (Printf.sprintf "Rgraph.node_of_ckpt: C(%d,%d) does not exist" i x);
  g.offsets.(i) + x

let ckpt_of_node g v =
  let n = Pattern.n g.pat in
  let rec find i =
    if i = n - 1 || g.offsets.(i + 1) > v then (i, v - g.offsets.(i)) else find (i + 1)
  in
  if v < 0 || v >= g.num_nodes then invalid_arg "Rgraph.ckpt_of_node: out of range";
  find 0

let successors g v = List.init (g.first.(v + 1) - g.first.(v)) (fun k -> g.adj.(g.first.(v) + k))

let edge_count g = g.first.(g.num_nodes)

(* Sorts [a.(lo) .. a.(hi - 1)]: insertion sort on the short slices
   nearly every node has, the library sort on a long one. *)
let sort_slice a lo hi =
  if hi - lo > 16 then begin
    let s = Array.sub a lo (hi - lo) in
    Array.sort Int.compare s;
    Array.blit s 0 a lo (hi - lo)
  end
  else
    for k = lo + 1 to hi - 1 do
      let x = a.(k) in
      let j = ref (k - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done

let build pat =
  let n = Pattern.n pat in
  let offsets = Array.make n 0 in
  let total = ref 0 in
  for i = 0 to n - 1 do
    offsets.(i) <- !total;
    total := !total + Array.length (Pattern.checkpoints pat i)
  done;
  let num_nodes = !total in
  let msgs = Pattern.messages pat in
  let source (m : Types.message) = offsets.(m.Types.src) + m.Types.send_interval in
  (* counting pass: out-degree of v into [fill.(v + 1)], then prefix
     sums, so [fill.(v)] is the start of v's raw slice *)
  let fill = Array.make (num_nodes + 1) 0 in
  for i = 0 to n - 1 do
    for x = 0 to Pattern.last_index pat i - 1 do
      fill.(offsets.(i) + x + 1) <- 1
    done
  done;
  Array.iter
    (fun m ->
      let v = source m in
      fill.(v + 1) <- fill.(v + 1) + 1)
    msgs;
  for v = 1 to num_nodes do
    fill.(v) <- fill.(v) + fill.(v - 1)
  done;
  let raw = Array.make fill.(num_nodes) 0 in
  (* fill pass, advancing [fill.(v)] to the end of v's raw slice:
     program-order edges, then message edges
     C_{src,send_interval} -> C_{dst,recv_interval} *)
  for i = 0 to n - 1 do
    for x = 0 to Pattern.last_index pat i - 1 do
      let v = offsets.(i) + x in
      raw.(fill.(v)) <- v + 1;
      fill.(v) <- fill.(v) + 1
    done
  done;
  Array.iter
    (fun (m : Types.message) ->
      let v = source m in
      raw.(fill.(v)) <- offsets.(m.Types.dst) + m.Types.recv_interval;
      fill.(v) <- fill.(v) + 1)
    msgs;
  (* [fill.(v)] is now the end of v's raw slice, and the end of the
     previous one its start.  Sort each slice and compact it, distinct,
     into [raw]'s prefix; [fill.(v)] becomes the start of v's compacted
     slice once its raw end is read. *)
  let out = ref 0 and lo = ref 0 in
  for v = 0 to num_nodes - 1 do
    let hi = fill.(v) in
    sort_slice raw !lo hi;
    fill.(v) <- !out;
    for k = !lo to hi - 1 do
      if !out = fill.(v) || raw.(!out - 1) <> raw.(k) then begin
        raw.(!out) <- raw.(k);
        incr out
      end
    done;
    lo := hi
  done;
  fill.(num_nodes) <- !out;
  { pat; offsets; num_nodes; first = fill; adj = raw; scc = None; max_src = None }

(* Iterative Tarjan SCC.  SCCs are emitted in reverse topological order of
   the condensation: when an SCC is completed, all SCCs it can reach have
   already been emitted, so every R-edge between two SCCs runs from a
   larger id to a smaller one.  [order] lists the nodes as they are
   popped, i.e. by ascending SCC id. *)
let compute_scc g =
  let nv = g.num_nodes and first = g.first and adj = g.adj in
  let index = Array.make nv (-1) in
  let lowlink = Array.make nv 0 in
  let scc_of = Array.make nv (-1) in
  let order = Array.make nv 0 and popped = ref 0 in
  (* Tarjan's node stack (its members are the visited nodes not yet in an
     SCC), and the DFS call stack as (node, next edge) *)
  let stack = Array.make nv 0 and sp = ref 0 in
  let call_node = Array.make nv 0 and call_edge = Array.make nv 0 and csp = ref 0 in
  let next_index = ref 0 in
  let next_scc = ref 0 and nontrivial = ref [] in
  let visit v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack.(!sp) <- v;
    incr sp;
    call_node.(!csp) <- v;
    call_edge.(!csp) <- first.(v);
    incr csp
  in
  for root = 0 to nv - 1 do
    if index.(root) < 0 then begin
      visit root;
      while !csp > 0 do
        let top = !csp - 1 in
        let v = call_node.(top) and e = call_edge.(top) in
        if e < first.(v + 1) then begin
          call_edge.(top) <- e + 1;
          let w = adj.(e) in
          if index.(w) < 0 then visit w
          else if scc_of.(w) < 0 then lowlink.(v) <- Int.min lowlink.(v) index.(w)
        end
        else begin
          (* finish v *)
          if lowlink.(v) = index.(v) then begin
            let id = !next_scc in
            incr next_scc;
            let start = !popped in
            let continue = ref true in
            while !continue do
              decr sp;
              let w = stack.(!sp) in
              scc_of.(w) <- id;
              order.(!popped) <- w;
              incr popped;
              if w = v then continue := false
            done;
            let self_loop = ref false in
            for k = first.(v) to first.(v + 1) - 1 do
              if adj.(k) = v then self_loop := true
            done;
            nontrivial := (!popped - start > 1 || !self_loop) :: !nontrivial
          end;
          csp := top;
          if top > 0 then begin
            let u = call_node.(top - 1) in
            lowlink.(u) <- Int.min lowlink.(u) lowlink.(v)
          end
        end
      done
    end
  done;
  (scc_of, order, Array.of_list (List.rev !nontrivial))

(* One cached Tarjan pass, shared by [in_cycle] and the vector pass. *)
let scc g =
  if Option.is_none g.scc then g.scc <- Some (compute_scc g);
  Option.get g.scc

(* Seeds [max_src]'s array, filled right after.  Module-level, so old by
   the time a run is checked: an [Array.make] of more than 256 words
   seeded with a young block runs a minor collection first. *)
let dummy = Vclock.create ~n:1

(* The R-edges reversed, in the same compressed-sparse-row layout:
   [pred.(pfirst.(w)) .. pred.(pfirst.(w + 1) - 1)] are w's
   predecessors. *)
let reverse g =
  let nv = g.num_nodes in
  let pfirst = Array.make (nv + 1) 0 and pred = Array.make (edge_count g) 0 in
  for e = 0 to edge_count g - 1 do
    let w = g.adj.(e) in
    pfirst.(w + 1) <- pfirst.(w + 1) + 1
  done;
  for w = 1 to nv do
    pfirst.(w) <- pfirst.(w) + pfirst.(w - 1)
  done;
  (* advances [pfirst.(w)] to the end of w's slice, the start of the
     next one; shifted back right after *)
  for v = 0 to nv - 1 do
    for e = g.first.(v) to g.first.(v + 1) - 1 do
      let w = g.adj.(e) in
      pred.(pfirst.(w)) <- v;
      pfirst.(w) <- pfirst.(w) + 1
    done
  done;
  for w = nv downto 1 do
    pfirst.(w) <- pfirst.(w - 1)
  done;
  pfirst.(0) <- 0;
  (pfirst, pred)

(* [max_src.(id)] holds, per process i, 1 + the greatest x with
   C_{i,x} ~> some node of SCC [id] (0: no such x) — the encoding of
   [Online.max_reach].  Every predecessor SCC has a larger Tarjan id, so
   visiting SCCs by decreasing id finds each predecessor's vector
   complete.  Each SCC pulls its own checkpoints and its predecessors'
   vectors into one dense accumulator [acc], whose nonzero positions
   [touched] lists; the gather is emitted as one exactly sized vector
   and [acc] is zeroed again. *)
let max_src g =
  match g.max_src with
  | Some m -> m
  | None ->
      let scc_of, order, nontrivial = scc g in
      let n = Pattern.n g.pat and nv = g.num_nodes in
      let owner = Array.make nv 0 in
      for i = 0 to n - 1 do
        for x = 0 to Pattern.last_index g.pat i do
          owner.(g.offsets.(i) + x) <- i
        done
      done;
      let pfirst, pred = reverse g in
      let acc = Array.make n 0 and touched = Array.make n 0 and k = ref 0 in
      let raise_entry i x =
        let old = acc.(i) in
        if old = 0 then begin
          touched.(!k) <- i;
          incr k
        end;
        if x > old then acc.(i) <- x
      in
      (* the positions in ascending order: a scan of [acc] (n steps)
         when the gather is dense, else [touched] sorted (nnz log nnz);
         each is several times the other's cost on the other side *)
      let emit () =
        let nnz = !k in
        let idx = Array.make nnz 0 and vals = Array.make nnz 0 in
        if 4 * nnz >= n then begin
          let s = ref 0 in
          for i = 0 to n - 1 do
            if acc.(i) > 0 then begin
              idx.(!s) <- i;
              vals.(!s) <- acc.(i);
              acc.(i) <- 0;
              incr s
            end
          done
        end
        else begin
          sort_slice touched 0 nnz;
          for s = 0 to nnz - 1 do
            let i = touched.(s) in
            idx.(s) <- i;
            vals.(s) <- acc.(i);
            acc.(i) <- 0
          done
        end;
        k := 0;
        Vclock.of_sorted ~n idx vals
      in
      let m = Array.make (Array.length nontrivial) dummy in
      (* [order] lists the nodes by ascending SCC id, so walking it
         backwards meets each SCC's nodes in one run *)
      for s = nv - 1 downto 0 do
        let v = order.(s) in
        let id = scc_of.(v) in
        raise_entry owner.(v) (v - g.offsets.(owner.(v)) + 1);
        for e = pfirst.(v) to pfirst.(v + 1) - 1 do
          let u = scc_of.(pred.(e)) in
          if u <> id then Vclock.iteri ~f:raise_entry m.(u)
        done;
        if s = 0 || scc_of.(order.(s - 1)) <> id then m.(id) <- emit ()
      done;
      g.max_src <- Some m;
      m

let max_reach g c =
  let scc_of, _, _ = scc g in
  (max_src g).(scc_of.(node_of_ckpt g c))

let max_reaching_index g ~from_pid c = Vclock.get (max_reach g c) from_pid - 1

(* Reachability from C_{i,x} is downward closed in x (program-order
   edges), so one maximum answers it. *)
let reaches g ((i, x) as a) b =
  ignore (node_of_ckpt g a);
  x <= max_reaching_index g ~from_pid:i b

let in_cycle g a =
  let scc_of, _, nontrivial = scc g in
  nontrivial.(scc_of.(node_of_ckpt g a))

let to_dot g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph rgraph {\n  rankdir=LR;\n";
  for v = 0 to g.num_nodes - 1 do
    let i, x = ckpt_of_node g v in
    Buffer.add_string buf (Printf.sprintf "  n%d [label=\"C(%d,%d)\"];\n" v i x)
  done;
  for v = 0 to g.num_nodes - 1 do
    for e = g.first.(v) to g.first.(v + 1) - 1 do
      Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" v g.adj.(e))
    done
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
