module Vclock = Rdt_dist.Vclock

type node = int

type t = {
  pat : Pattern.t;
  offsets : int array; (* offsets.(i) = node id of C_{i,0} *)
  num_nodes : int;
  succ : node list array; (* deduplicated adjacency *)
  edge_count : int;
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

let successors g v = g.succ.(v)

let edge_count g = g.edge_count

let build pat =
  let n = Pattern.n pat in
  let offsets = Array.make n 0 in
  let total = ref 0 in
  for i = 0 to n - 1 do
    offsets.(i) <- !total;
    total := !total + Array.length (Pattern.checkpoints pat i)
  done;
  let num_nodes = !total in
  let raw = Array.make num_nodes [] in
  (* program-order edges *)
  for i = 0 to n - 1 do
    let last = Pattern.last_index pat i in
    for x = 0 to last - 1 do
      let v = offsets.(i) + x in
      raw.(v) <- (v + 1) :: raw.(v)
    done
  done;
  (* message edges: C_{src,send_interval} -> C_{dst,recv_interval} *)
  Array.iter
    (fun (m : Types.message) ->
      let v = offsets.(m.Types.src) + m.Types.send_interval in
      let w = offsets.(m.Types.dst) + m.Types.recv_interval in
      raw.(v) <- w :: raw.(v))
    (Pattern.messages pat);
  let edge_count = ref 0 in
  let succ =
    Array.map
      (fun l ->
        let d = List.sort_uniq Int.compare l in
        edge_count := !edge_count + List.length d;
        d)
      raw
  in
  {
    pat;
    offsets;
    num_nodes;
    succ;
    edge_count = !edge_count;
    scc = None;
    max_src = None;
  }

(* Iterative Tarjan SCC.  SCCs are emitted in reverse topological order of
   the condensation: when an SCC is completed, all SCCs it can reach have
   already been emitted, so every R-edge between two SCCs runs from a
   larger id to a smaller one.  [order] lists the nodes as they are
   popped, i.e. by ascending SCC id. *)
let compute_scc g =
  let nv = g.num_nodes in
  let index = Array.make nv (-1) in
  let lowlink = Array.make nv 0 in
  let on_stack = Array.make nv false in
  let scc_of = Array.make nv (-1) in
  let order = Array.make nv 0 and popped = ref 0 in
  let stack = ref [] in
  let next_index = ref 0 in
  let next_scc = ref 0 in
  let nontrivial = ref [] in
  (* explicit DFS stack: (node, remaining successors) *)
  for root = 0 to nv - 1 do
    if index.(root) < 0 then begin
      let call = ref [ (root, ref g.succ.(root)) ] in
      index.(root) <- !next_index;
      lowlink.(root) <- !next_index;
      incr next_index;
      stack := root :: !stack;
      on_stack.(root) <- true;
      while !call <> [] do
        match !call with
        | [] -> ()
        | (v, rest) :: above -> (
            match !rest with
            | w :: tl ->
                rest := tl;
                if index.(w) < 0 then begin
                  index.(w) <- !next_index;
                  lowlink.(w) <- !next_index;
                  incr next_index;
                  stack := w :: !stack;
                  on_stack.(w) <- true;
                  call := (w, ref g.succ.(w)) :: !call
                end
                else if on_stack.(w) then
                  lowlink.(v) <- min lowlink.(v) index.(w)
            | [] ->
                (* finish v *)
                if lowlink.(v) = index.(v) then begin
                  let id = !next_scc in
                  incr next_scc;
                  let first = !popped in
                  let continue = ref true in
                  while !continue do
                    match !stack with
                    | [] -> assert false
                    | w :: tl ->
                        stack := tl;
                        on_stack.(w) <- false;
                        scc_of.(w) <- id;
                        order.(!popped) <- w;
                        incr popped;
                        if w = v then continue := false
                  done;
                  let self_loop = List.exists (Int.equal v) g.succ.(v) in
                  nontrivial := (!popped - first > 1 || self_loop) :: !nontrivial
                end;
                call := above;
                (match above with
                | (u, _) :: _ -> lowlink.(u) <- min lowlink.(u) lowlink.(v)
                | [] -> ()))
      done
    end
  done;
  (scc_of, order, Array.of_list (List.rev !nontrivial))

(* One cached Tarjan pass, shared by [in_cycle] and the vector pass. *)
let scc g =
  if Option.is_none g.scc then g.scc <- Some (compute_scc g);
  Option.get g.scc

(* [max_src.(id)] holds, per process i, 1 + the greatest x with
   C_{i,x} ~> some node of SCC [id] (0: no such x) — the encoding of
   [Online.max_reach].  Every predecessor SCC has a larger Tarjan id, so
   visiting nodes by decreasing SCC id completes each vector before it is
   merged into its successors'. *)
let max_src g =
  match g.max_src with
  | Some m -> m
  | None ->
      let scc_of, order, nontrivial = scc g in
      let n = Pattern.n g.pat in
      let m = Array.init (Array.length nontrivial) (fun _ -> Vclock.create ~n) in
      (* x ascends, so the last write per (SCC, process) is the maximum *)
      for i = 0 to n - 1 do
        for x = 0 to Pattern.last_index g.pat i do
          Vclock.set m.(scc_of.(g.offsets.(i) + x)) i (x + 1)
        done
      done;
      for k = g.num_nodes - 1 downto 0 do
        let id = scc_of.(order.(k)) in
        List.iter
          (fun w -> if scc_of.(w) <> id then Vclock.merge m.(scc_of.(w)) m.(id))
          g.succ.(order.(k))
      done;
      g.max_src <- Some m;
      m

let row g c =
  let scc_of, _, _ = scc g in
  (max_src g).(scc_of.(node_of_ckpt g c))

let max_reaching_index g ~from_pid c = Vclock.get (row g c) from_pid - 1

let iter_max_reaching g c ~f = Vclock.iteri ~f:(fun i x -> f i (x - 1)) (row g c)

(* Reachability from C_{i,x} is downward closed in x (program-order
   edges), so one maximum answers it. *)
let reaches g ((i, x) as a) b =
  ignore (node_of_ckpt g a);
  x <= max_reaching_index g ~from_pid:i b

let reachable_set g ((i, x) as a) =
  ignore (node_of_ckpt g a);
  let (scc_of, _, _), m = (scc g, max_src g) in
  let set = Bitset.create g.num_nodes in
  Array.iteri (fun v id -> if x < Vclock.get m.(id) i then Bitset.add set v) scc_of;
  set

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
    List.iter (fun w -> Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" v w)) g.succ.(v)
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
