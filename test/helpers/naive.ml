module P = Rdt_pattern.Pattern
module T = Rdt_pattern.Types

let rgraph_edges pat =
  let edges = ref [] in
  for i = 0 to P.n pat - 1 do
    for x = 0 to P.last_index pat i - 1 do
      edges := ((i, x), (i, x + 1)) :: !edges
    done
  done;
  Array.iter
    (fun (m : T.message) ->
      edges := ((m.src, m.send_interval), (m.dst, m.recv_interval)) :: !edges)
    (P.messages pat);
  List.sort_uniq compare !edges

let reaches pat a b =
  let edges = rgraph_edges pat in
  let visited = Hashtbl.create 97 in
  let rec dfs v =
    v = b
    || (not (Hashtbl.mem visited v))
       && begin
            Hashtbl.add visited v ();
            List.exists (fun (u, w) -> u = v && dfs w) edges
          end
  in
  dfs a

let max_reaching_index pat ~from_pid c =
  let rec down x = if x < 0 || reaches pat (from_pid, x) c then x else down (x - 1) in
  down (P.last_index pat from_pid)

let max_reaching_indices pat =
  let preds = Hashtbl.create 97 in
  List.iter (fun (u, w) -> Hashtbl.add preds w u) (rgraph_edges pat);
  fun c ->
    let best = Array.make (P.n pat) (-1) in
    let visited = Hashtbl.create 97 in
    let rec dfs ((i, x) as v) =
      if not (Hashtbl.mem visited v) then begin
        Hashtbl.add visited v ();
        if x > best.(i) then best.(i) <- x;
        List.iter dfs (Hashtbl.find_all preds v)
      end
    in
    dfs c;
    best

(* Explicit message-graph DFS. [edge m m'] decides whether the chain may
   continue from message [m] with message [m']. *)
let message_dfs pat ~start ~accept ~edge =
  let msgs = P.messages pat in
  let nm = Array.length msgs in
  let visited = Array.make nm false in
  let rec dfs id =
    accept msgs.(id)
    || (not visited.(id))
       && begin
            visited.(id) <- true;
            let found = ref false in
            for id' = 0 to nm - 1 do
              if (not !found) && edge msgs.(id) msgs.(id') then found := dfs id'
            done;
            !found
          end
  in
  let found = ref false in
  for id = 0 to nm - 1 do
    if (not !found) && start msgs.(id) then found := dfs id
  done;
  !found

let zigzag pat (i, x) (j, y) =
  message_dfs pat
    ~start:(fun m -> m.T.src = i && m.T.send_interval >= x + 1)
    ~accept:(fun m -> m.T.dst = j && m.T.recv_interval <= y)
    ~edge:(fun m m' -> m'.T.src = m.T.dst && m.T.recv_interval <= m'.T.send_interval)

let causal_chain pat ~from_pos_after ~src (j, y) =
  message_dfs pat
    ~start:(fun m -> m.T.src = src && m.T.send_pos > from_pos_after)
    ~accept:(fun m -> m.T.dst = j && m.T.recv_interval <= y)
    ~edge:(fun m m' -> m'.T.src = m.T.dst && m.T.recv_pos < m'.T.send_pos)

let trackable pat (i, x) (j, y) =
  if i = j then x <= y
  else if x = 0 then true
  else
    let pos = (P.checkpoints pat i).(x - 1).T.pos in
    causal_chain pat ~from_pos_after:pos ~src:i (j, y)

let consistent_global pat v =
  let ok = ref true in
  Array.iter
    (fun (m : T.message) ->
      if m.T.send_interval > v.(m.T.src) && m.T.recv_interval <= v.(m.T.dst) then ok := false)
    (P.messages pat);
  !ok

let all_global_checkpoints pat =
  let n = P.n pat in
  let limits = Array.init n (fun i -> P.last_index pat i) in
  let rec go i acc =
    if i = n then [ Array.of_list (List.rev acc) ]
    else List.concat_map (fun x -> go (i + 1) (x :: acc)) (List.init (limits.(i) + 1) Fun.id)
  in
  List.to_seq (go 0 [])

let candidates pat (i, x) =
  Seq.filter
    (fun v -> v.(i) = x && consistent_global pat v)
    (all_global_checkpoints pat)

let fold_componentwise f pat c =
  match List.of_seq (candidates pat c) with
  | [] -> None
  | first :: rest ->
      let acc = Array.copy first in
      List.iter (fun v -> Array.iteri (fun k y -> acc.(k) <- f acc.(k) y) v) rest;
      (* lattice property: the fold must itself be consistent *)
      assert (consistent_global pat acc);
      Some acc

let min_gcp pat c = fold_componentwise min pat c

let max_gcp pat c = fold_componentwise max pat c
