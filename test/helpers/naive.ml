module P = Rdt_pattern.Pattern
module T = Rdt_pattern.Types
module H = Rdt_pattern.History

(* ------------------------------------------------------------------ *)
(* Global order                                                        *)
(* ------------------------------------------------------------------ *)

module Logged = struct
  type b = {
    b : P.Builder.b;
    gseqs : int list array; (* per process, newest first *)
    dst : (int, int) Hashtbl.t; (* message handle -> destination *)
    last_is_ckpt : bool array;
    mutable next : int;
  }

  let push l i ~ckpt =
    l.gseqs.(i) <- l.next :: l.gseqs.(i);
    l.next <- l.next + 1;
    l.last_is_ckpt.(i) <- ckpt

  let create ~n =
    let l =
      {
        b = P.Builder.create ~n;
        gseqs = Array.make n [];
        dst = Hashtbl.create 16;
        last_is_ckpt = Array.make n true;
        next = 0;
      }
    in
    (* the initial checkpoints *)
    for i = 0 to n - 1 do
      push l i ~ckpt:true
    done;
    l

  let checkpoint l i =
    let x = P.Builder.checkpoint l.b i in
    push l i ~ckpt:true;
    x

  let send l ~src ~dst =
    let h = P.Builder.send l.b ~src ~dst in
    Hashtbl.replace l.dst h dst;
    push l src ~ckpt:false;
    h

  let recv l h =
    P.Builder.recv l.b h;
    push l (Hashtbl.find l.dst h) ~ckpt:false

  let finish l =
    let pat = P.Builder.finish l.b in
    for i = 0 to Array.length l.gseqs - 1 do
      if not l.last_is_ckpt.(i) then push l i ~ckpt:true
    done;
    (pat, Array.map (fun g -> Array.of_list (List.rev g)) l.gseqs)
end

let history_gseqs h =
  let stacks = H.stacks h in
  let n = Array.length stacks in
  let kept =
    Array.map
      (List.filter (function
        | H.Ckpt { index = 0; _ } -> false (* the builder's initial checkpoint *)
        | H.Send { msg; _ } -> not (H.is_undeliverable h msg)
        | H.Recv _ | H.Internal _ | H.Ckpt _ -> true))
      stacks
  in
  let seq = function
    | H.Send { seq; _ } | H.Recv { seq; _ } | H.Internal { seq } | H.Ckpt { seq; _ } -> seq
  in
  let top = Array.fold_left (List.fold_left (fun acc e -> max acc (seq e))) 0 kept in
  Array.mapi
    (fun i entries ->
      let final =
        match List.rev entries with [] | H.Ckpt _ :: _ -> [] | _ :: _ -> [ n + top + 1 + i ]
      in
      Array.of_list ((i :: List.map (fun e -> n + seq e) entries) @ final))
    kept

let gseq_order pat ~gseqs =
  let total = Array.fold_left (fun acc g -> acc + Array.length g) 0 gseqs in
  let out = Array.make total (0, 0, T.Internal) in
  let keys = Array.make total 0 in
  let k = ref 0 in
  for i = 0 to P.n pat - 1 do
    Array.iteri
      (fun pos ev ->
        out.(!k) <- (i, pos, ev);
        keys.(!k) <- gseqs.(i).(pos);
        incr k)
      (P.events pat i)
  done;
  let idx = Array.init total (fun i -> i) in
  Array.sort (fun a b -> Int.compare keys.(a) keys.(b)) idx;
  Array.map (fun j -> out.(j)) idx

(* ------------------------------------------------------------------ *)
(* R-graph and TDVs                                                    *)
(* ------------------------------------------------------------------ *)

let rgraph_successors pat =
  let n = P.n pat in
  let offsets = Array.make n 0 in
  for i = 1 to n - 1 do
    offsets.(i) <- offsets.(i - 1) + P.last_index pat (i - 1) + 1
  done;
  let node (i, x) = offsets.(i) + x in
  let raw = Array.make (node (n - 1, P.last_index pat (n - 1)) + 1) [] in
  for i = 0 to n - 1 do
    for x = 0 to P.last_index pat i - 1 do
      raw.(node (i, x)) <- node (i, x + 1) :: raw.(node (i, x))
    done
  done;
  Array.iter
    (fun (m : T.message) ->
      let v = node (m.src, m.send_interval) in
      raw.(v) <- node (m.dst, m.recv_interval) :: raw.(v))
    (P.messages pat);
  Array.map (List.sort_uniq Int.compare) raw

let dense_tdvs pat =
  let n = P.n pat in
  let vectors = Array.init n (fun _ -> Array.make n 0) in
  let snapshots = Array.init n (fun i -> Array.make (P.last_index pat i + 1) [||]) in
  let payloads = Array.make (P.num_messages pat) [||] in
  P.iter_in_order pat (fun i _pos ev ->
      match ev with
      | T.Ckpt x ->
          snapshots.(i).(x) <- Array.copy vectors.(i);
          vectors.(i).(i) <- x + 1
      | T.Send id -> payloads.(id) <- Array.copy vectors.(i)
      | T.Recv id -> Array.iteri (fun k v -> vectors.(i).(k) <- max vectors.(i).(k) v) payloads.(id)
      | T.Internal -> ());
  fun (i, x) -> snapshots.(i).(x)

(* ------------------------------------------------------------------ *)
(* Reachability, chains, consistency                                   *)
(* ------------------------------------------------------------------ *)

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

(* Every message that ends a chain whose first message satisfies
   [start], breadth-first over the explicit message graph (each popped
   message compared with every message), and per process the least
   delivery interval among them. *)
let message_bfs pat ~start ~edge =
  let msgs = P.messages pat in
  let reached = Array.make (Array.length msgs) false in
  let queue = Queue.create () in
  let visit (m : T.message) =
    if not reached.(m.id) then begin
      reached.(m.id) <- true;
      Queue.add m queue
    end
  in
  Array.iter (fun m -> if start m then visit m) msgs;
  while not (Queue.is_empty queue) do
    let m = Queue.pop queue in
    Array.iter (fun m' -> if edge m m' then visit m') msgs
  done;
  let earliest = Array.make (P.n pat) max_int in
  Array.iter
    (fun (m : T.message) -> if reached.(m.id) then earliest.(m.dst) <- min earliest.(m.dst) m.recv_interval)
    msgs;
  (earliest, reached)

let chain_edge ~zigzag (m : T.message) (m' : T.message) =
  m'.src = m.dst
  && if zigzag then m.recv_interval <= m'.send_interval else m.recv_pos < m'.send_pos

let interval_reach ~zigzag pat (i, x) =
  message_bfs pat
    ~start:(fun m -> m.T.src = i && m.T.send_interval = x)
    ~edge:(chain_edge ~zigzag)

let causally_precedes pat (i, x) (j, y) =
  if i = j then x < y
  else
    let earliest, _ =
      message_bfs pat
        ~start:(fun m -> m.T.src = i && m.T.send_interval > x)
        ~edge:(chain_edge ~zigzag:false)
    in
    earliest.(j) <= y

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

(* -------------------- JSONL trace codec -------------------- *)

module Trace = Rdt_obs.Trace

let trace_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let trace_encode (ev : Trace.event) =
  let escape = trace_escape in
  let int_array_json a = "[" ^ String.concat "," (List.map string_of_int (Array.to_list a)) ^ "]" in
  let string_list_json l =
    "[" ^ String.concat "," (List.map (fun s -> "\"" ^ escape s ^ "\"") l) ^ "]"
  in
  match ev with
  | Meta { n; protocol; env; seed; mode } ->
      Printf.sprintf
        "{\"ev\":\"meta\",\"n\":%d,\"protocol\":\"%s\",\"env\":\"%s\",\"seed\":%d,\"mode\":\"%s\"}"
        n (escape protocol) (escape env) seed (escape mode)
  | Send { msg; src; dst; time } ->
      Printf.sprintf "{\"ev\":\"send\",\"msg\":%d,\"src\":%d,\"dst\":%d,\"t\":%d}" msg src dst time
  | Deliver { msg; src; dst; time } ->
      Printf.sprintf "{\"ev\":\"deliver\",\"msg\":%d,\"src\":%d,\"dst\":%d,\"t\":%d}" msg src dst
        time
  | Internal { pid; time } -> Printf.sprintf "{\"ev\":\"internal\",\"pid\":%d,\"t\":%d}" pid time
  | Ckpt { pid; index; kind; time; tdv; preds } ->
      let base =
        Printf.sprintf "{\"ev\":\"ckpt\",\"pid\":%d,\"index\":%d,\"kind\":\"%s\",\"t\":%d" pid
          index
          (Rdt_pattern.Types.ckpt_kind_to_string kind)
          time
      in
      let preds_part = if preds = [] then "" else ",\"preds\":" ^ string_list_json preds in
      let tdv_part = match tdv with None -> "" | Some a -> ",\"tdv\":" ^ int_array_json a in
      base ^ preds_part ^ tdv_part ^ "}"
  | Retransmit { src; dst; seq; attempt; time } ->
      Printf.sprintf
        "{\"ev\":\"retransmit\",\"src\":%d,\"dst\":%d,\"seq\":%d,\"attempt\":%d,\"t\":%d}" src dst
        seq attempt time
  | Drop { src; dst; time } ->
      Printf.sprintf "{\"ev\":\"drop\",\"src\":%d,\"dst\":%d,\"t\":%d}" src dst time
  | Undeliverable { msg; src; dst; time } ->
      Printf.sprintf "{\"ev\":\"undeliverable\",\"msg\":%d,\"src\":%d,\"dst\":%d,\"t\":%d}" msg src
        dst time
  | Rollback { pid; to_index; time } ->
      Printf.sprintf "{\"ev\":\"rollback\",\"pid\":%d,\"to_index\":%d,\"t\":%d}" pid to_index time
  | Replay { msg; src; dst; time } ->
      Printf.sprintf "{\"ev\":\"replay\",\"msg\":%d,\"src\":%d,\"dst\":%d,\"t\":%d}" msg src dst
        time
  | Verdict { checker; rdt } ->
      Printf.sprintf "{\"ev\":\"verdict\",\"checker\":\"%s\",\"rdt\":%b}" (escape checker) rdt

let trace_decode line = Result.bind (Trace.Json.parse line) Trace.of_json

let trace_read_file path =
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error e -> Error e
  | lines ->
      let rec go lineno acc = function
        | [] -> Ok (List.rev acc)
        | line :: rest ->
            if String.trim line = "" then go (lineno + 1) acc rest
            else (
              match trace_decode line with
              | Ok ev -> go (lineno + 1) (ev :: acc) rest
              | Error e -> Error (Printf.sprintf "%s, line %d: %s" path lineno e))
      in
      go 1 [] lines

let crc_table =
  Array.init 256 (fun i ->
      let c = ref i in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32_sub s ~pos ~len =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := crc_table.((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF
