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

let reaches edges (a : T.ckpt_id) b =
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

(* Causal message chain from [src] starting strictly after event position
   [from_pos_after], ending with a delivery in interval <= y of process j. *)
let causal_chain pat ~from_pos_after ~src (j, y) =
  let msgs = P.messages pat in
  let nm = Array.length msgs in
  let visited = Array.make nm false in
  let rec dfs id =
    (msgs.(id).T.dst = j && msgs.(id).T.recv_interval <= y)
    || (not visited.(id))
       && begin
            visited.(id) <- true;
            let found = ref false in
            for id' = 0 to nm - 1 do
              if
                (not !found)
                && msgs.(id').T.src = msgs.(id).T.dst
                && msgs.(id).T.recv_pos < msgs.(id').T.send_pos
              then found := dfs id'
            done;
            !found
          end
  in
  let found = ref false in
  for id = 0 to nm - 1 do
    if (not !found) && msgs.(id).T.src = src && msgs.(id).T.send_pos > from_pos_after then
      found := dfs id
  done;
  !found

let trackable pat (i, x) (j, y) =
  if i = j then x <= y
  else if x = 0 then true
  else
    let pos = (P.checkpoints pat i).(x - 1).T.pos in
    causal_chain pat ~from_pos_after:pos ~src:i (j, y)

let all_ckpts pat =
  List.concat
    (List.init (P.n pat) (fun i -> List.init (P.last_index pat i + 1) (fun x -> (i, x))))

let rdt pat =
  let edges = rgraph_edges pat in
  let cks = all_ckpts pat in
  List.for_all
    (fun a ->
      List.for_all (fun b -> (not (reaches edges a b)) || trackable pat a b) cks)
    cks

let affordable pat =
  P.n pat <= 3 && P.num_checkpoints pat <= 24 && P.num_messages pat <= 60
