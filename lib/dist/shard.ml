(* Conservative lockstep-epoch sharding over Event_queue.

   Determinism argument, shard by shard: a shard's local execution is a
   pure function of the sequence of events inserted into its queue and
   the order of insertion.  Local scheduling happens inside the shard's
   own sequential step; cross-shard insertions happen only at the
   exchange barrier, where the incoming batch is sorted by a key —
   (arrival time, seed-derived source tiebreak, source shard, emission
   seq) — that is itself deterministic.  Worker count can only change
   *when* shards are stepped relative to wall clock, never what any
   shard observes. *)

type 'a incoming = { at : int; tie : int; src : int; emit_seq : int; payload : 'a }

type 'a t = {
  shards : int;
  lookahead : int;
  ties : int array; (* seed-derived merge tiebreak per shard *)
  queues : 'a Event_queue.t array;
  outbox : 'a incoming list array array; (* outbox.(src).(dst), newest first *)
  emit_seq : int array; (* per-src counter for stable outbox ordering *)
  stepped : int array; (* per-shard handled-event counts *)
  mutable horizon : int;
}

let create ~shards ~seed ~lookahead () =
  if shards < 1 then invalid_arg "Shard.create: shards must be >= 1";
  if lookahead < 1 then invalid_arg "Shard.create: lookahead must be >= 1";
  {
    shards;
    lookahead;
    ties = Array.init shards (fun i -> Rng.derive_seed seed (Printf.sprintf "shard.%d" i));
    queues = Array.init shards (fun _ -> Event_queue.create ());
    outbox = Array.make_matrix shards shards [];
    emit_seq = Array.make shards 0;
    stepped = Array.make shards 0;
    horizon = 0;
  }

let check_shard t s what =
  if s < 0 || s >= t.shards then invalid_arg (Printf.sprintf "Shard.%s: shard %d out of range" what s)

let schedule t ~shard ~time payload =
  check_shard t shard "schedule";
  Event_queue.schedule t.queues.(shard) ~time payload

let post t ~src ~dst ~time payload =
  check_shard t src "post";
  check_shard t dst "post";
  if time < t.horizon then
    invalid_arg
      (Printf.sprintf "Shard.post: arrival %d below horizon %d breaks lookahead" time t.horizon);
  let seq = t.emit_seq.(src) in
  t.emit_seq.(src) <- seq + 1;
  t.outbox.(src).(dst) <-
    { at = time; tie = t.ties.(src); src; emit_seq = seq; payload } :: t.outbox.(src).(dst)

(* (time, tie, src, emit_seq): time first; then the seed-derived shard
   tiebreak; src and emission order make the key total even if two
   derived tiebreaks collide. *)
let compare_incoming a b =
  let c = compare a.at b.at in
  if c <> 0 then c
  else
    let c = compare a.tie b.tie in
    if c <> 0 then c
    else
      let c = compare a.src b.src in
      if c <> 0 then c else compare a.emit_seq b.emit_seq

let exchange t =
  for dst = 0 to t.shards - 1 do
    let batch = ref [] in
    for src = 0 to t.shards - 1 do
      batch := List.rev_append t.outbox.(src).(dst) !batch;
      t.outbox.(src).(dst) <- []
    done;
    List.iter
      (fun m -> Event_queue.schedule t.queues.(dst) ~time:m.at m.payload)
      (List.sort compare_incoming !batch)
  done;
  (* advance the horizon: everything below (earliest pending) + lookahead
     is now safe on every shard *)
  let m = ref max_int in
  Array.iter
    (fun q -> match Event_queue.peek_time q with Some x when x < !m -> m := x | _ -> ())
    t.queues;
  if !m < max_int then t.horizon <- !m + t.lookahead

let step t ~shard ~handler =
  check_shard t shard "step";
  let q = t.queues.(shard) in
  let handled = ref 0 in
  let continue = ref true in
  while !continue do
    match Event_queue.peek_time q with
    | Some time when time < t.horizon ->
        (match Event_queue.pop q with
        | Some (time, payload) ->
            incr handled;
            handler ~time payload
        | None -> assert false)
    | _ -> continue := false
  done;
  t.stepped.(shard) <- t.stepped.(shard) + !handled;
  !handled

let finished t =
  Array.for_all Event_queue.is_empty t.queues
  && Array.for_all (Array.for_all (fun l -> l = [])) t.outbox

let total_stepped t = Array.fold_left ( + ) 0 t.stepped
