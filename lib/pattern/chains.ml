type reach = { earliest : int array; reached_msgs : bool array }

(* ------------------------------------------------------------------ *)
(* Window arithmetic on the per-process send arrays                    *)
(* ------------------------------------------------------------------ *)

(* First slot of [sends] whose send position is > [pos]. *)
let first_send_after pat sends pos =
  let msgs = Pattern.messages pat in
  let lo = ref 0 and hi = ref (Array.length sends) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if msgs.(sends.(mid)).Types.send_pos > pos then hi := mid else lo := mid + 1
  done;
  !lo

(* First slot of [sends] whose send interval is >= [itv]. *)
let first_send_in_interval pat sends itv =
  let msgs = Pattern.messages pat in
  let lo = ref 0 and hi = ref (Array.length sends) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if msgs.(sends.(mid)).Types.send_interval >= itv then hi := mid else lo := mid + 1
  done;
  !lo

(* ------------------------------------------------------------------ *)
(* Causal relaxation: frontier = earliest delivery *position* reached  *)
(* ------------------------------------------------------------------ *)

let relax_causal pat ~seed_pid ~lo ~hi =
  let n = Pattern.n pat in
  let msgs = Pattern.messages pat in
  let nm = Array.length msgs in
  let best_pos = Array.make n max_int in
  let earliest = Array.make n max_int in
  let reached = Array.make nm false in
  let work = ref [] in
  let push id =
    if not reached.(id) then begin
      reached.(id) <- true;
      work := id :: !work
    end
  in
  (* Enable the sends of process [j] at positions in the open window
     (win_lo, win_hi). *)
  let enable j ~win_lo ~win_hi =
    let sends = Pattern.sends_of pat j in
    let k = ref (first_send_after pat sends win_lo) in
    while
      !k < Array.length sends && msgs.(sends.(!k)).Types.send_pos < win_hi
    do
      push sends.(!k);
      incr k
    done
  in
  enable seed_pid ~win_lo:lo ~win_hi:hi;
  while !work <> [] do
    match !work with
    | [] -> ()
    | id :: rest ->
        work := rest;
        let m = msgs.(id) in
        let j = m.Types.dst in
        if m.Types.recv_interval < earliest.(j) then earliest.(j) <- m.Types.recv_interval;
        if m.Types.recv_pos < best_pos.(j) then begin
          let old = best_pos.(j) in
          best_pos.(j) <- m.Types.recv_pos;
          enable j ~win_lo:m.Types.recv_pos ~win_hi:old
        end
  done;
  { earliest; reached_msgs = reached }

(* ------------------------------------------------------------------ *)
(* Zigzag relaxation: frontier = earliest delivery *interval* reached  *)
(* ------------------------------------------------------------------ *)

let relax_zigzag pat ~seed_pid ~lo ~hi =
  let n = Pattern.n pat in
  let msgs = Pattern.messages pat in
  let nm = Array.length msgs in
  let best_itv = Array.make n max_int in
  let earliest = Array.make n max_int in
  let reached = Array.make nm false in
  let work = ref [] in
  let push id =
    if not reached.(id) then begin
      reached.(id) <- true;
      work := id :: !work
    end
  in
  (* Enable the sends of process [j] whose interval lies in
     [itv_lo, itv_hi). *)
  let enable_intervals j ~itv_lo ~itv_hi =
    let sends = Pattern.sends_of pat j in
    let k = ref (first_send_in_interval pat sends itv_lo) in
    while
      !k < Array.length sends && msgs.(sends.(!k)).Types.send_interval < itv_hi
    do
      push sends.(!k);
      incr k
    done
  in
  (* Seeds are selected by position window, like the causal case. *)
  let enable_positions j ~win_lo ~win_hi =
    let sends = Pattern.sends_of pat j in
    let k = ref (first_send_after pat sends win_lo) in
    while
      !k < Array.length sends && msgs.(sends.(!k)).Types.send_pos < win_hi
    do
      push sends.(!k);
      incr k
    done
  in
  enable_positions seed_pid ~win_lo:lo ~win_hi:hi;
  while !work <> [] do
    match !work with
    | [] -> ()
    | id :: rest ->
        work := rest;
        let m = msgs.(id) in
        let j = m.Types.dst in
        let y = m.Types.recv_interval in
        if y < earliest.(j) then earliest.(j) <- y;
        if y < best_itv.(j) then begin
          let old = best_itv.(j) in
          best_itv.(j) <- y;
          enable_intervals j ~itv_lo:y ~itv_hi:old
        end
  done;
  { earliest; reached_msgs = reached }

(* ------------------------------------------------------------------ *)
(* Public queries                                                      *)
(* ------------------------------------------------------------------ *)

let interval_window pat (i, x) =
  (* positions strictly inside I_{i,x} *)
  if x < 1 then (0, 0) (* empty: I_{i,0} contains no send *)
  else
    let cks = Pattern.checkpoints pat i in
    (cks.(x - 1).Types.pos, cks.(x).Types.pos)

let check_ckpt pat (i, x) =
  if not (Pattern.has_ckpt pat (i, x)) then
    invalid_arg (Printf.sprintf "Chains: C(%d,%d) does not exist" i x)

let causal_from_interval pat (i, x) =
  check_ckpt pat (i, x);
  let lo, hi = interval_window pat (i, x) in
  relax_causal pat ~seed_pid:i ~lo ~hi

let causal_after pat (i, x) =
  check_ckpt pat (i, x);
  let pos = (Pattern.checkpoints pat i).(x).Types.pos in
  relax_causal pat ~seed_pid:i ~lo:pos ~hi:max_int

let causally_precedes pat (i, x) (j, y) =
  check_ckpt pat (i, x);
  check_ckpt pat (j, y);
  if i = j then x < y
  else
    let r = causal_after pat (i, x) in
    r.earliest.(j) <= y

let zpath_from_interval pat (i, x) =
  check_ckpt pat (i, x);
  let lo, hi = interval_window pat (i, x) in
  relax_zigzag pat ~seed_pid:i ~lo ~hi

let zigzag_after pat (i, x) =
  check_ckpt pat (i, x);
  let pos = (Pattern.checkpoints pat i).(x).Types.pos in
  relax_zigzag pat ~seed_pid:i ~lo:pos ~hi:max_int

let zigzag pat (i, x) (j, y) =
  check_ckpt pat (j, y);
  let r = zigzag_after pat (i, x) in
  r.earliest.(j) <= y

let zcycle pat (i, x) = zigzag pat (i, x) (i, x)

let trackable pat (i, x) (j, y) =
  check_ckpt pat (i, x);
  check_ckpt pat (j, y);
  if i = j then x <= y
  else if x = 0 then true
  else
    let r = causal_after pat (i, x - 1) in
    r.earliest.(j) <= y

let strictly_trackable pat (i, x) (j, y) =
  check_ckpt pat (i, x);
  check_ckpt pat (j, y);
  if i = j then x <= y
  else if x = 0 then false
  else
    let r = causal_from_interval pat (i, x) in
    r.earliest.(j) <= y

(* ------------------------------------------------------------------ *)
(* CM-paths and doubling                                               *)
(* ------------------------------------------------------------------ *)

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
          if reached then begin
            let m'' = msgs.(id) in
            let i = m''.Types.dst in
            let q = m''.Types.recv_pos in
            let t = m''.Types.recv_interval in
            let cks = Pattern.checkpoints pat i in
            let itv_start = if t = 0 then -1 else cks.(t - 1).Types.pos in
            (* messages sent by P_i inside I_{i,t} before the delivery of
               m'': each yields the non-causal junction of a CM-path *)
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
              (Pattern.sends_between pat i ~lo:itv_start ~hi:q)
          end)
        r.reached_msgs
    done
  done;
  List.rev !out

let pairwise_doubled pat tdv =
  let msgs = Pattern.messages pat in
  let ok = ref true in
  Array.iter
    (fun (m : Types.message) ->
      let p = m.Types.dst in
      let cks = Pattern.checkpoints pat p in
      let t = m.Types.recv_interval in
      let lo = if t = 0 then -1 else cks.(t - 1).Types.pos in
      List.iter
        (fun mid ->
          let m' = Pattern.message pat mid in
          if
            not
              (Tdv.trackable tdv
                 (m.Types.src, m.Types.send_interval)
                 (m'.Types.dst, m'.Types.recv_interval))
          then ok := false)
        (Pattern.sends_between pat p ~lo ~hi:m.Types.recv_pos))
    msgs;
  !ok

let undoubled_cm_paths pat tdv =
  List.filter (fun p -> not (Tdv.trackable tdv p.origin p.target)) (cm_paths pat)
