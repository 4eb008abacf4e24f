exception Inconsistent of string

let inconsistent fmt = Printf.ksprintf (fun s -> raise (Inconsistent s)) fmt

type entry =
  | Send of { seq : int; msg : int }
  | Recv of { seq : int; msg : int }
  | Internal of { seq : int }
  | Ckpt of { seq : int; index : int }

module Routes = Rdt_dist.Tbl.Int

(* Each process's surviving entries are a prefix of one growable int
   array, two ints per entry, oldest first: [seq lsl 2 lor tag], then the
   payload (the message id, the checkpoint index, 0 for an internal
   event).  A rollback only lowers the length. *)
let tag_send = 0

let tag_recv = 1

let tag_internal = 2

let tag_ckpt = 3

type t = {
  n : int;
  logs : int array array; (* per process; [||] until its first push *)
  lens : int array; (* surviving entries per process *)
  rollbacks : int array; (* per process, rollbacks that popped entries *)
  routes : int Routes.t; (* msg -> its latest record in [arrived] *)
  mutable arrived : int array; (* (msg, src, dst) triples, one per send, in arrival order *)
  mutable n_arrived : int;
  undeliv : (int, unit) Hashtbl.t;
}

let create ~n =
  {
    n;
    logs = Array.make n [||];
    lens = Array.make n 0;
    rollbacks = Array.make n 0;
    routes = Routes.create 64;
    arrived = Array.make 48 0;
    n_arrived = 0;
    undeliv = Hashtbl.create 8;
  }

let add_route h ~msg ~src ~dst =
  Routes.replace h.routes msg h.n_arrived;
  let i = 3 * h.n_arrived in
  if i + 3 > Array.length h.arrived then begin
    let a = Array.make (2 * Array.length h.arrived) 0 in
    Array.blit h.arrived 0 a 0 i;
    h.arrived <- a
  end;
  h.arrived.(i) <- msg;
  h.arrived.(i + 1) <- src;
  h.arrived.(i + 2) <- dst;
  h.n_arrived <- h.n_arrived + 1

let check_pid h pid what =
  if pid < 0 || pid >= h.n then inconsistent "%s: pid %d out of range" what pid

(* most streams abandon nothing: skip the hash of an empty table *)
let is_undeliverable h msg = Hashtbl.length h.undeliv > 0 && Hashtbl.mem h.undeliv msg

let push h pid tag ~seq x =
  let k = h.lens.(pid) in
  let log = h.logs.(pid) in
  let log =
    if 2 * k < Array.length log then log
    else begin
      let grown = Array.make (max 16 (2 * Array.length log)) 0 in
      Array.blit log 0 grown 0 (2 * k);
      h.logs.(pid) <- grown;
      grown
    end
  in
  log.(2 * k) <- (seq lsl 2) lor tag;
  log.((2 * k) + 1) <- x;
  h.lens.(pid) <- k + 1

let send h ~seq ~msg ~src ~dst =
  check_pid h src "send";
  check_pid h dst "send";
  add_route h ~msg ~src ~dst;
  push h src tag_send ~seq msg

let recv h ~seq ~msg ~dst =
  check_pid h dst "deliver";
  if not (Routes.mem h.routes msg) then inconsistent "deliver of unknown message %d" msg;
  if is_undeliverable h msg then inconsistent "deliver of undeliverable message %d" msg;
  push h dst tag_recv ~seq msg

let internal h ~seq ~pid =
  check_pid h pid "internal";
  push h pid tag_internal ~seq 0

let checkpoint h ~seq ~pid ~index =
  check_pid h pid "ckpt";
  push h pid tag_ckpt ~seq index

let undeliverable h ~msg = Hashtbl.replace h.undeliv msg ()

(* entry [k] of a log *)
let entry log k =
  let w = log.(2 * k) and x = log.((2 * k) + 1) in
  let seq = w lsr 2 in
  match w land 3 with
  | 0 -> Send { seq; msg = x }
  | 1 -> Recv { seq; msg = x }
  | 2 -> Internal { seq }
  | _ -> Ckpt { seq; index = x }

(* entries [from, upto) of a log, oldest first *)
let entries log ~from ~upto =
  let rec collect acc k = if k < from then acc else collect (entry log k :: acc) (k - 1) in
  collect [] (upto - 1)

let rollback h ~pid ~to_index =
  check_pid h pid "rollback";
  let log = h.logs.(pid) and len = h.lens.(pid) in
  (* the length that keeps C(pid, to_index) on top *)
  let rec keep k =
    if k = 0 then
      if to_index = 0 then 0 (* the implicit initial checkpoint *)
      else inconsistent "rollback of pid %d to missing checkpoint %d" pid to_index
    else
      let w = log.(2 * (k - 1)) in
      if w land 3 = tag_ckpt && log.((2 * (k - 1)) + 1) = to_index then k else keep (k - 1)
  in
  let kept = keep len in
  if kept < len then begin
    h.lens.(pid) <- kept;
    h.rollbacks.(pid) <- h.rollbacks.(pid) + 1
  end;
  entries log ~from:kept ~upto:len

(* A k-way merge of the logs by seq, ties to the lower pid: a binary
   min-heap of the processes with entries left, keyed by their next
   entry's seq. *)
let iter h f =
  let pos = Array.make h.n 0 in
  let heap = Array.make h.n 0 and size = ref 0 in
  let key pid = h.logs.(pid).(2 * pos.(pid)) lsr 2 in
  let before a b =
    let ka = key a and kb = key b in
    ka < kb || (ka = kb && a < b)
  in
  let rec sift_down i =
    let l = (2 * i) + 1 in
    if l < !size then begin
      let r = l + 1 in
      let c = if r < !size && before heap.(r) heap.(l) then r else l in
      if before heap.(c) heap.(i) then begin
        let t = heap.(i) in
        heap.(i) <- heap.(c);
        heap.(c) <- t;
        sift_down c
      end
    end
  in
  for pid = 0 to h.n - 1 do
    if h.lens.(pid) > 0 then begin
      heap.(!size) <- pid;
      incr size
    end
  done;
  for i = (!size / 2) - 1 downto 0 do
    sift_down i
  done;
  while !size > 0 do
    let pid = heap.(0) in
    let k = pos.(pid) in
    pos.(pid) <- k + 1;
    if k + 1 = h.lens.(pid) then begin
      decr size;
      heap.(0) <- heap.(!size)
    end;
    sift_down 0;
    f pid (entry h.logs.(pid) k)
  done

let to_pattern ~checkpoint h =
  let b = Pattern.Builder.create ~n:h.n in
  let handles = Hashtbl.create 64 in
  iter h (fun pid e ->
      match e with
      | Send { msg; _ } ->
          if not (is_undeliverable h msg) then begin
            match Routes.find_opt h.routes msg with
            | Some r ->
                let dst = h.arrived.((3 * r) + 2) in
                Hashtbl.replace handles msg (Pattern.Builder.send b ~src:pid ~dst)
            | None -> inconsistent "no route recorded for message %d" msg
          end
      | Recv { msg; _ } -> (
          match Hashtbl.find_opt handles msg with
          | Some handle -> Pattern.Builder.recv b handle
          | None -> inconsistent "surviving delivery of rolled-back send %d" msg)
      | Internal _ -> Pattern.Builder.internal b pid
      | Ckpt { index = 0; _ } -> () (* taken by the builder at creation *)
      | Ckpt { seq; _ } ->
          let kind, tdv, time = checkpoint seq in
          ignore (Pattern.Builder.checkpoint ~kind ?tdv ~time b pid));
  Pattern.Builder.finish b

let delivered h msg =
  let rec scan pid k =
    if pid = h.n then false
    else if k = h.lens.(pid) then scan (pid + 1) 0
    else
      let log = h.logs.(pid) in
      (log.(2 * k) land 3 = tag_recv && log.((2 * k) + 1) = msg) || scan pid (k + 1)
  in
  scan 0 0

let stacks h = Array.init h.n (fun pid -> entries h.logs.(pid) ~from:0 ~upto:h.lens.(pid))

let length h pid = h.lens.(pid)

let rollbacks h pid = h.rollbacks.(pid)

let iter_log h pid ~from f =
  let log = h.logs.(pid) in
  for k = max 0 from to h.lens.(pid) - 1 do
    let w = log.(2 * k) in
    f (w land 3) (w lsr 2) log.((2 * k) + 1)
  done

let routes_arrived h = h.n_arrived

let iter_routes_from h ~from f =
  for i = max 0 from to h.n_arrived - 1 do
    f h.arrived.(3 * i) h.arrived.((3 * i) + 1) h.arrived.((3 * i) + 2)
  done

(* the records each message's route points at, its latest, by id *)
let routes h =
  let latest = ref [] in
  for r = h.n_arrived - 1 downto 0 do
    let msg = h.arrived.(3 * r) in
    if Routes.find h.routes msg = r then
      latest := (msg, h.arrived.((3 * r) + 1), h.arrived.((3 * r) + 2)) :: !latest
  done;
  List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) !latest

let undeliverable_msgs h = Rdt_dist.Tbl.keys_sorted ~compare:Int.compare h.undeliv

let restore ~n ~stacks ~routes ~undeliverable =
  let h = create ~n in
  Array.iteri
    (fun pid stack ->
      List.iter
        (fun e ->
          let tag, seq, x =
            match e with
            | Send { seq; msg } -> (tag_send, seq, msg)
            | Recv { seq; msg } -> (tag_recv, seq, msg)
            | Internal { seq } -> (tag_internal, seq, 0)
            | Ckpt { seq; index } -> (tag_ckpt, seq, index)
          in
          (* the merge in [iter] needs each log in seq order *)
          let k = h.lens.(pid) in
          if seq < 0 || seq > max_int lsr 2 || (k > 0 && seq <= h.logs.(pid).(2 * (k - 1)) lsr 2)
          then inconsistent "restore: seq %d of pid %d out of order" seq pid;
          push h pid tag ~seq x)
        stack)
    stacks;
  List.iter (fun (msg, src, dst) -> add_route h ~msg ~src ~dst) routes;
  List.iter (fun msg -> Hashtbl.replace h.undeliv msg ()) undeliverable;
  h
