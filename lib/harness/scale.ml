module Shard = Rdt_dist.Shard
module Rng = Rdt_dist.Rng
module Vclock = Rdt_dist.Vclock

type params = { n : int; messages : int; seed : int }

let default_params = { n = 10_000; messages = 1_000_000; seed = 1 }

(* Destinations are ring neighbours within this span; a process takes a
   basic checkpoint every this many sends. *)
let hop_span = 8

let basic_ckpt_every = 8

let validate_params p =
  if p.n < 2 then Error "n must be >= 2"
  else if p.messages < 0 then Error "messages must be >= 0"
  else Ok ()

(* A function of n alone — the partition of processes over shards (and
   with it every cross-shard merge) must not depend on the worker count. *)
let shards_for n = max 1 (min 64 (n / 256))

(* Cross-shard messages travel at least this long; local ones may be
   faster.  The epoch width of the conservative driver. *)
let lookahead = 8

type ev =
  | Tick of int (* the process performs its next send *)
  | Recv of { dst : int; msg : int; payload : Vclock.t }

type result = {
  shards : int;
  events : int;
  sent : int;
  delivered : int;
  ckpts_basic : int;
  ckpts_forced : int;
  final_time : int;
  payload_entries : int;
  payload_bytes : int;
  checksum : int;
}

let pp_result ppf r =
  Format.fprintf ppf
    "shards: %d@.events: %d@.sent: %d@.delivered: %d@.ckpts_basic: %d@.ckpts_forced: \
     %d@.final_time: %d@.payload_entries: %d@.payload_bytes: %d@.checksum: %016x"
    r.shards r.events r.sent r.delivered r.ckpts_basic r.ckpts_forced r.final_time
    r.payload_entries r.payload_bytes r.checksum

(* FNV-1a over the sparse entries of every final vector, in (process,
   position) order: any divergence between two runs shows up here. *)
let fnv_prime = 0x100000001b3

let fnv acc x = (acc lxor x) * fnv_prime land max_int

(* Trace actions, logged per shard in handling order when tracing. *)
type action =
  | A_send of { src : int; dst : int; msg : int }
  | A_recv of { dst : int; msg : int }
  | A_ckpt of { p : int; index : int }

(* Per-shard counters live in their own record — one heap block per
   shard, so domains stepping different shards never write into the
   same cache line. *)
type stats = {
  mutable st_sent : int;
  mutable st_delivered : int;
  mutable st_basic : int;
  mutable st_forced : int;
  mutable st_entries : int;
  mutable st_bytes : int;
  mutable st_final_time : int;
}

type engine = {
  params : params;
  nshards : int;
  core : ev Shard.t;
  (* per-process state; a process is touched only by its own shard *)
  vectors : Vclock.t array;
  interval : int array; (* current checkpoint-interval index *)
  quota : int array;
  sent_p : int array;
  sent_since_ckpt : int array;
  rngs : Rng.t array;
  (* payload snapshot reused across consecutive sends: receivers only
     read payloads, so one immutable copy serves until the sender's own
     vector next mutates (checkpoint or merge), which clears the slot *)
  payload_cache : Vclock.t option array;
  stats : stats array;
  trace : (int * action) list array option; (* per-shard (time, action) log, newest first *)
}

(* Block partition: shard s owns the contiguous range of processes
   [s*n/shards, (s+1)*n/shards).  Contiguity matters twice over — the
   ring-local traffic stays mostly intra-shard, and the per-process
   arrays are written in disjoint cache-line ranges by the domains
   stepping different shards. *)
let shard_of e p = p * e.nshards / e.params.n

(* Wire-size estimate of a sparse payload: an entry-count header plus a
   (position, value) varint-free pair per nonzero entry. *)
let payload_size v = 8 + (16 * Vclock.nnz v)

let log e shard time action =
  match e.trace with Some logs -> logs.(shard) <- (time, action) :: logs.(shard) | None -> ()

let take_ckpt e ~shard ~time p ~forced =
  let x = e.interval.(p) in
  e.interval.(p) <- x + 1;
  Vclock.set e.vectors.(p) p (x + 1);
  e.payload_cache.(p) <- None;
  e.sent_since_ckpt.(p) <- 0;
  let st = e.stats.(shard) in
  if forced then st.st_forced <- st.st_forced + 1 else st.st_basic <- st.st_basic + 1;
  log e shard time (A_ckpt { p; index = x })

let handler e shard ~time ev =
  let st = e.stats.(shard) in
  if time > st.st_final_time then st.st_final_time <- time;
  match ev with
  | Tick p ->
      let rng = e.rngs.(p) in
      let n = e.params.n in
      (* basic checkpoints pace with the send counter, before the send *)
      if e.sent_p.(p) > 0 && e.sent_p.(p) mod basic_ckpt_every = 0 && e.sent_since_ckpt.(p) > 0
      then take_ckpt e ~shard ~time p ~forced:false;
      (* ring-local destination: bounded causal spread keeps vectors
         sparse; the span clamp keeps dst <> p however small n is *)
      let hop = Rng.int_in rng 1 (min hop_span (n - 1)) in
      let dst = if Rng.bool rng then (p + hop) mod n else (p - hop + n) mod n in
      (* globally unique id from the per-process quota ceiling *)
      let msg = (p * ((e.params.messages / e.params.n) + 1)) + e.sent_p.(p) in
      let payload =
        match e.payload_cache.(p) with
        | Some v -> v
        | None ->
            let v = Vclock.copy e.vectors.(p) in
            e.payload_cache.(p) <- Some v;
            v
      in
      st.st_sent <- st.st_sent + 1;
      st.st_entries <- st.st_entries + Vclock.nnz payload;
      st.st_bytes <- st.st_bytes + payload_size payload;
      e.sent_p.(p) <- e.sent_p.(p) + 1;
      e.sent_since_ckpt.(p) <- e.sent_since_ckpt.(p) + 1;
      log e shard time (A_send { src = p; dst; msg });
      let dshard = shard_of e dst in
      if dshard = shard then
        Shard.schedule e.core ~shard ~time:(time + 1 + Rng.int rng 3) (Recv { dst; msg; payload })
      else
        Shard.post e.core ~src:shard ~dst:dshard
          ~time:(time + lookahead + Rng.int rng 4)
          (Recv { dst; msg; payload });
      if e.sent_p.(p) < e.quota.(p) then
        Shard.schedule e.core ~shard ~time:(time + 1 + Rng.int rng 3) (Tick p)
  | Recv { dst; msg; payload } ->
      (* checkpoint-before-receive: if the process sent anything in its
         current interval, close the interval before merging — the CBR
         rule that makes every dependency trackable *)
      if e.sent_since_ckpt.(dst) > 0 then take_ckpt e ~shard ~time dst ~forced:true;
      Vclock.merge e.vectors.(dst) payload;
      e.payload_cache.(dst) <- None;
      st.st_delivered <- st.st_delivered + 1;
      log e shard time (A_recv { dst; msg })

let create ?(traced = false) params =
  (match validate_params params with
  | Ok () -> ()
  | Error m -> invalid_arg ("Scale: " ^ m));
  let n = params.n in
  let nshards = shards_for n in
  let core = Shard.create ~shards:nshards ~seed:params.seed ~lookahead () in
  let quota =
    Array.init n (fun p -> (params.messages / n) + if p < params.messages mod n then 1 else 0)
  in
  let e =
    {
      params;
      nshards;
      core;
      vectors = Array.init n (fun _ -> Vclock.create ~n);
      interval = Array.make n 0;
      quota;
      sent_p = Array.make n 0;
      sent_since_ckpt = Array.make n 0;
      rngs = Array.init n (fun p -> Rng.create (Rng.derive_seed params.seed (Printf.sprintf "proc.%d" p)));
      payload_cache = Array.make n None;
      stats =
        Array.init nshards (fun _ ->
            {
              st_sent = 0;
              st_delivered = 0;
              st_basic = 0;
              st_forced = 0;
              st_entries = 0;
              st_bytes = 0;
              st_final_time = 0;
            });
      trace = (if traced then Some (Array.make nshards []) else None);
    }
  in
  (* mirror the builder: C_{p,0} is taken at creation; entry p becomes 1 *)
  for p = 0 to n - 1 do
    e.interval.(p) <- 1;
    Vclock.set e.vectors.(p) p 1;
    if quota.(p) > 0 then Shard.schedule core ~shard:(shard_of e p) ~time:(p land 7) (Tick p)
  done;
  e

let sum f e = Array.fold_left (fun acc st -> acc + f st) 0 e.stats

let result_of e =
  let checksum =
    let offset_basis = Int64.to_int 0xcbf29ce484222325L land max_int in
    let acc = ref (fnv offset_basis e.params.n) in
    Array.iteri
      (fun p v ->
        acc := fnv !acc p;
        Vclock.iteri v ~f:(fun i x ->
            acc := fnv (fnv !acc i) x))
      e.vectors;
    !acc
  in
  {
    shards = e.nshards;
    events = Shard.total_stepped e.core;
    sent = sum (fun s -> s.st_sent) e;
    delivered = sum (fun s -> s.st_delivered) e;
    ckpts_basic = sum (fun s -> s.st_basic) e;
    ckpts_forced = sum (fun s -> s.st_forced) e;
    final_time = Array.fold_left (fun acc st -> max acc st.st_final_time) 0 e.stats;
    payload_entries = sum (fun s -> s.st_entries) e;
    payload_bytes = sum (fun s -> s.st_bytes) e;
    checksum;
  }

let drive ?jobs e =
  let shard_ids = List.init e.nshards Fun.id in
  let core = e.core in
  while not (Shard.finished core) do
    Shard.exchange core;
    ignore (Pool.map ?jobs (fun s -> Shard.step core ~shard:s ~handler:(handler e s)) shard_ids)
  done

let run ?jobs params =
  let e = create params in
  drive ?jobs e;
  result_of e

(* ------------------------------------------------------------------ *)
(* Traced runs: a pattern for the offline checkers                     *)
(* ------------------------------------------------------------------ *)

let build_pattern e =
  let module B = Rdt_pattern.Pattern.Builder in
  let logs = match e.trace with Some l -> l | None -> assert false in
  (* Global linearization: (time, shard, in-shard order).  Valid because
     every delivery is strictly later than its send (delays >= 1) and a
     process lives on exactly one shard, so its own order is preserved. *)
  let entries =
    Array.to_list (Array.mapi (fun shard l -> List.rev_map (fun (t, a) -> (t, shard, a)) l) logs)
    |> List.concat
    |> List.stable_sort (fun (t1, s1, _) (t2, s2, _) -> compare (t1, s1) (t2, s2))
  in
  let b = B.create ~n:e.params.n in
  let handles = Hashtbl.create (max 16 (sum (fun s -> s.st_sent) e)) in
  List.iter
    (fun (time, _, action) ->
      match action with
      | A_send { src; dst; msg } -> Hashtbl.replace handles msg (B.send ~time b ~src ~dst)
      | A_recv { msg; _ } -> B.recv ~time b (Hashtbl.find handles msg)
      | A_ckpt { p; index = _ } -> ignore (B.checkpoint ~time b p))
    entries;
  B.finish b

let run_traced params =
  let e = create ~traced:true params in
  drive ~jobs:1 e;
  (result_of e, build_pattern e)
