(* Messages grouped by (src, dst) would save a constant factor, but the
   fixpoints below touch every message per round anyway; we keep the flat
   scan and rely on the small number of rounds. *)

let messages pat f =
  let msgs = Pattern.messages pat in
  for k = 0 to Array.length msgs - 1 do
    let m = msgs.(k) in
    f m.Types.src m.Types.send_interval m.Types.dst m.Types.recv_interval
  done

let orphan pat ~sender:(i, x) ~receiver:(j, y) =
  let found = ref None in
  Array.iter
    (fun (m : Types.message) ->
      if
        !found = None && m.Types.src = i && m.Types.dst = j
        && m.Types.send_interval > x && m.Types.recv_interval <= y
      then found := Some m.Types.id)
    (Pattern.messages pat);
  !found

let consistent_pair pat a b =
  orphan pat ~sender:a ~receiver:b = None && orphan pat ~sender:b ~receiver:a = None

let consistent_global pat v =
  Pattern.check_line pat v ~length:"Consistency: vector length mismatch" ~missing:(fun i x ->
      Printf.sprintf "Consistency: C(%d,%d) does not exist" i x);
  let ok = ref true in
  messages pat (fun i send j recv -> if send > v.(i) && recv <= v.(j) then ok := false);
  !ok

let pin_set pat cks =
  let pinned = Array.make (Pattern.n pat) (-1) in
  List.iter
    (fun (i, x) ->
      if not (Pattern.has_ckpt pat (i, x)) then
        invalid_arg (Printf.sprintf "Consistency: C(%d,%d) does not exist" i x);
      if pinned.(i) >= 0 && pinned.(i) <> x then
        invalid_arg "Consistency: two checkpoints of the same process in the set";
      pinned.(i) <- x)
    cks;
  pinned

exception Impossible

(* The one orphan-elimination loop: [repair i send j recv] moves an end
   of an orphan (sent after C_{i,v_i}, delivered before C_{j,v_j}) or
   raises [Impossible]; rounds go on until no orphan is left. *)
let eliminate_orphans messages (v : int array) repair =
  let changed = ref true in
  let visit i (send : int) j recv =
    if send > v.(i) && recv <= v.(j) then begin
      repair i send j recv;
      changed := true
    end
  in
  try
    while !changed do
      changed := false;
      messages visit
    done;
    Some v
  with Impossible -> None

(* Minimum: start from the pinned entries (0 elsewhere) and raise the
   sender side of each orphan.  An orphan forces every consistent
   assignment >= v to satisfy N_i >= send_interval(m), so raising
   v_i := send_interval m keeps the invariant v <= minimum. *)
let min_consistent_containing pat cks =
  let pinned = pin_set pat cks in
  let v = Array.map (fun x -> max x 0) pinned in
  eliminate_orphans (messages pat) v (fun i send _ _ ->
      if pinned.(i) >= 0 || send > Pattern.last_index pat i then raise Impossible;
      v.(i) <- send)

(* Lowering the receiver side is the dual: an orphan forces every
   consistent assignment <= v to satisfy N_j < recv_interval(m), so
   v_j := recv_interval m - 1 keeps the invariant v >= maximum, and the
   result is the greatest fixpoint below [start] whatever order the
   messages come in. *)
let max_consistent_below ?(pinned = [||]) messages start =
  let v = Array.copy start in
  eliminate_orphans messages v (fun _ _ j recv ->
      if j < Array.length pinned && pinned.(j) then raise Impossible;
      if recv < 1 then invalid_arg "Consistency.max_consistent_below: delivery interval < 1";
      v.(j) <- recv - 1)

let max_consistent_containing pat cks =
  let pinned = pin_set pat cks in
  let start = Array.mapi (fun i x -> if x >= 0 then x else Pattern.last_index pat i) pinned in
  max_consistent_below ~pinned:(Array.map (fun x -> x >= 0) pinned) (messages pat) start

let extensible pat cks = min_consistent_containing pat cks <> None

let useless pat c = not (extensible pat [ c ])
