type reach = { earliest : int array; reached_msgs : bool array }

(* First slot of [sends] whose [key] is >= [from]; [key] (a send
   position or interval) never decreases along [sends]. *)
let first_send msgs sends (key : Types.message -> int) from =
  let lo = ref 0 and hi = ref (Array.length sends) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if key msgs.(sends.(mid)) >= from then hi := mid else lo := mid + 1
  done;
  !lo

let send_pos (m : Types.message) = m.Types.send_pos

let send_interval (m : Types.message) = m.Types.send_interval

(* One worklist for both kinds of chain.  The seeds are the sends of
   [seed_pid] at positions in [from, until).  A delivery of
   [m] at P_j lets the chain go on with the sends of P_j from its bound
   on: the next position for a causal chain, the delivery's own interval
   for a Z-path.  [frontier.(j)] is the least bound reached so far, so a
   delivery enables only the sends in [bound, frontier.(j)) that no
   earlier one did, and each message is relaxed at most once. *)
let relax pat ~zigzag ~seed_pid ~from ~until =
  let msgs = Pattern.messages pat in
  let key, bound =
    if zigzag then (send_interval, fun m -> m.Types.recv_interval)
    else (send_pos, fun m -> m.Types.recv_pos + 1)
  in
  let frontier = Array.make (Pattern.n pat) max_int in
  let earliest = Array.make (Pattern.n pat) max_int in
  let reached = Array.make (Array.length msgs) false in
  let work = ref [] in
  let enable j (key : Types.message -> int) ~from ~until =
    let sends = Pattern.sends_of pat j in
    let k = ref (first_send msgs sends key from) in
    while !k < Array.length sends && key msgs.(sends.(!k)) < until do
      let id = sends.(!k) in
      if not reached.(id) then begin
        reached.(id) <- true;
        work := id :: !work
      end;
      incr k
    done
  in
  enable seed_pid send_pos ~from ~until;
  let rec drain () =
    match !work with
    | [] -> ()
    | id :: rest ->
        work := rest;
        let m = msgs.(id) in
        let j = m.Types.dst in
        if m.Types.recv_interval < earliest.(j) then earliest.(j) <- m.Types.recv_interval;
        let b = bound m in
        if b < frontier.(j) then begin
          let until = frontier.(j) in
          frontier.(j) <- b;
          enable j key ~from:b ~until
        end;
        drain ()
  in
  drain ();
  { earliest; reached_msgs = reached }

(* ------------------------------------------------------------------ *)
(* Public queries                                                      *)
(* ------------------------------------------------------------------ *)

(* Position of C_{i,t-1}, the start of I_{i,t}; -1 for t = 0. *)
let interval_start pat i t = if t = 0 then -1 else (Pattern.checkpoints pat i).(t - 1).Types.pos

let check_ckpt pat (i, x) =
  if not (Pattern.has_ckpt pat (i, x)) then
    invalid_arg (Printf.sprintf "Chains: C(%d,%d) does not exist" i x)

(* Chains whose first message P_i sends in I_{i,x}, or anywhere after
   C_{i,x} with [~after]. *)
let reach ~zigzag ~after pat (i, x) =
  check_ckpt pat (i, x);
  let pos = (Pattern.checkpoints pat i).(x).Types.pos in
  if after then relax pat ~zigzag ~seed_pid:i ~from:(pos + 1) ~until:max_int
  else relax pat ~zigzag ~seed_pid:i ~from:(interval_start pat i x + 1) ~until:pos

let reaches ~zigzag ~after pat a (j, y) = (reach ~zigzag ~after pat a).earliest.(j) <= y

let causal_from_interval = reach ~zigzag:false ~after:false

let zpath_from_interval = reach ~zigzag:true ~after:false

let causally_precedes pat (i, x) (j, y) =
  check_ckpt pat (i, x);
  check_ckpt pat (j, y);
  if i = j then x < y else reaches ~zigzag:false ~after:true pat (i, x) (j, y)

let zigzag pat a b =
  check_ckpt pat b;
  reaches ~zigzag:true ~after:true pat a b

let zcycle pat (i, x) = zigzag pat (i, x) (i, x)

let trackable pat (i, x) (j, y) =
  check_ckpt pat (i, x);
  check_ckpt pat (j, y);
  if i = j then x <= y
  else x = 0 || reaches ~zigzag:false ~after:true pat (i, x - 1) (j, y)

let strictly_trackable pat (i, x) (j, y) =
  check_ckpt pat (i, x);
  check_ckpt pat (j, y);
  if i = j then x <= y
  else x <> 0 && reaches ~zigzag:false ~after:false pat (i, x) (j, y)

(* ------------------------------------------------------------------ *)
(* CM-paths and doubling                                               *)
(* ------------------------------------------------------------------ *)

(* The messages the receiver of [m] sent in the interval of its delivery,
   before it: each such m' makes the chain m; m' non-causal. *)
let sends_before_delivery pat (m : Types.message) =
  Pattern.sends_between pat m.Types.dst
    ~lo:(interval_start pat m.Types.dst m.Types.recv_interval)
    ~hi:m.Types.recv_pos

type cm_path = {
  origin : Types.ckpt_id;
  prefix_end : int;
  last_msg : int;
  target : Types.ckpt_id;
}

let cm_paths pat =
  let msgs = Pattern.messages pat in
  let out = ref [] in
  let seen = Hashtbl.create 97 in
  for k = 0 to Pattern.n pat - 1 do
    for z = 1 to Pattern.last_index pat k do
      let r = causal_from_interval pat (k, z) in
      Array.iteri
        (fun id reached ->
          if reached then
            List.iter
              (fun mid ->
                let m = msgs.(mid) in
                let key = (k, z, mid) in
                if not (Hashtbl.mem seen key) then begin
                  Hashtbl.add seen key ();
                  out :=
                    {
                      origin = (k, z);
                      prefix_end = id;
                      last_msg = mid;
                      target = (m.Types.dst, m.Types.recv_interval);
                    }
                    :: !out
                end)
              (sends_before_delivery pat msgs.(id)))
        r.reached_msgs
    done
  done;
  List.rev !out

let pairwise_doubled pat tdv =
  let ok = ref true in
  Array.iter
    (fun (m : Types.message) ->
      List.iter
        (fun mid ->
          let m' = Pattern.message pat mid in
          if
            not
              (Tdv.trackable tdv
                 (m.Types.src, m.Types.send_interval)
                 (m'.Types.dst, m'.Types.recv_interval))
          then ok := false)
        (sends_before_delivery pat m))
    (Pattern.messages pat);
  !ok

let undoubled_cm_paths pat tdv =
  List.filter (fun p -> not (Tdv.trackable tdv p.origin p.target)) (cm_paths pat)
