module Env = Rdt_dist.Env
module Rng = Rdt_dist.Rng
module Channel = Rdt_dist.Channel
module Faults = Rdt_dist.Faults
module Transport = Rdt_dist.Transport
module Event_queue = Rdt_dist.Event_queue
module Pattern = Rdt_pattern.Pattern
module Ptypes = Rdt_pattern.Types
module History = Rdt_pattern.History
module Consistency = Rdt_pattern.Consistency
module Trace = Rdt_obs.Trace
module Meter = Rdt_obs.Meter

type crash = { victim : int; at : int; repair_delay : int }

type config = {
  n : int;
  seed : int;
  env : Env.t;
  protocol : Protocol.t;
  channel : Channel.spec;
  basic_period : int * int;
  max_messages : int;
  max_time : int;
  crashes : crash list;
  faults : Faults.spec;
  transport : Transport.params option;
  trace : Trace.t;
}

let configure ?(n = 8) ?(seed = 1) ?(messages = 2000) ?(channel = Channel.Uniform (5, 100))
    ?(basic_period = (300, 700)) ?(max_time = max_int / 2) ?(crashes = [])
    ?(faults = Faults.none) ?transport ?(trace = Trace.null) env protocol =
  (* faults need a transport to recover reliable delivery: supply the
     default parameters when faults come without any *)
  let transport =
    match transport with
    | None when not (Faults.is_none faults) -> Some Transport.default_params
    | t -> t
  in
  {
    n;
    seed;
    env;
    protocol;
    channel;
    basic_period;
    max_messages = messages;
    max_time;
    crashes;
    faults;
    transport;
    trace;
  }

let default_config env protocol = configure env protocol

type recovery = {
  crash : crash;
  line : int array;
  events_undone : int;
  checkpoints_undone : int;
  messages_undone : int;
  messages_replayed : int;
}

type result = {
  pattern : Pattern.t;
  metrics : Metrics.t;
  predicate_counts : (string * int) list;
  hierarchy_violations : (string * string) list;
  transport : Transport.stats option;
  recoveries : recovery list;
}

(* Implications expected among the predicates (weaker => stronger in the
   sense of Section 5.2: a less conservative test implies the more
   conservative one), as pairs of [Predicates] bits. *)
let expected_implications =
  Predicates.[| (c1_bit, c_fdas_bit); (c2_bit, c2'_bit); (c2_bit, c_fdas_bit);
                (c2'_bit, c_fdas_bit); (c_fdas_bit, c_fdi_bit) |]

let validate_config cfg =
  if cfg.n < 2 then invalid_arg "Runtime: n must be >= 2";
  if cfg.max_messages < 0 then invalid_arg "Runtime: negative message budget";
  (match Channel.validate cfg.channel with
  | Ok () -> ()
  | Error e -> invalid_arg ("Runtime: bad channel spec: " ^ e));
  (match Faults.validate ~n:cfg.n cfg.faults with
  | Ok () -> ()
  | Error e -> invalid_arg ("Runtime: bad fault spec: " ^ e));
  (match cfg.transport with
  | Some p -> (
      match Transport.validate_params p with
      | Ok () -> ()
      | Error e -> invalid_arg ("Runtime: bad transport params: " ^ e))
  | None ->
      if not (Faults.is_none cfg.faults) then
        invalid_arg "Runtime: fault injection requires a transport (set cfg.transport)");
  let lo, hi = cfg.basic_period in
  if lo < 0 || hi < lo then invalid_arg "Runtime: bad basic period";
  let down_until = Array.make cfg.n min_int in
  List.iter
    (fun c ->
      if c.victim < 0 || c.victim >= cfg.n then invalid_arg "Runtime: victim out of range";
      if c.at < 0 then invalid_arg "Runtime: negative crash time";
      if c.repair_delay < 1 then invalid_arg "Runtime: repair_delay must be >= 1";
      if c.at < down_until.(c.victim) then
        invalid_arg "Runtime: overlapping crashes of the same process";
      down_until.(c.victim) <- c.at + c.repair_delay)
    (List.stable_sort (fun a b -> Int.compare a.at b.at) cfg.crashes)

(* A run's network is picked once: the paper's reliable [Channels], the
   sliding-window reliable-delivery transport over a faulty network
   ([Window]), or, when crashes are planned too, a per-message
   stop-and-wait transport over that network: rollback undoes sends and
   replays deliveries, which the window's fixed sequence history cannot
   express. *)
type network = Channels | Window of int Transport.t | Stop_and_wait of int Transport.t

(* A timer names its process and the process's crash epoch in one int,
   [pid + n * epoch]: a crash retires every timer of the victim by moving
   it to the next epoch. *)
type queued =
  | Tick of int
  | Basic of int
  | Arrival of { dst : int; src : int; msg : int; payload : Control.t }
  | Net of Transport.wire
  | Crash of crash
  | Repair of crash
  | Packet of int (* stop-and-wait: one copy of a message reaching its receiver *)
  | Ack of int (* stop-and-wait: its acknowledgement reaching the sender *)
  | Retx of { msg : int; gen : int } (* stop-and-wait retransmission timer *)

type status =
  | Flight  (** sent, delivery pending *)
  | Delivered
  | Dead  (** its send was rolled back; never to be delivered *)
  | Replay  (** delivered once, delivery rolled back; awaiting replay *)
  | Undeliv  (** abandoned by the transport after [max_retx] retries *)

(* A run with a transport or crashes records its messages here, indexed
   by message id, and its events in a [History], because which events end
   up in the pattern is only known later: a message the transport abandons
   must not appear (patterns require every message delivered), and a
   rollback undoes events. *)
type msg = {
  src : int;
  dst : int;
  payload : Control.t;
  send_interval : int;
  mutable recv_interval : int; (* -1 until (re)delivered *)
  mutable status : status;
  (* stop-and-wait state; the generation retires the timers of an
     earlier (re)start of the message's retransmission loop *)
  mutable attempts : int;
  mutable acked : bool;
  mutable gen : int;
}

let run cfg =
  validate_config cfg;
  let tr = cfg.trace in
  let (module P : Protocol.S) = cfg.protocol in
  let (module E : Env.S) = cfg.env in
  let crashes_planned = cfg.crashes <> [] in
  let rng = Rng.create cfg.seed in
  let env_rng = Rng.split rng in
  (* the network stream is split off only on a transport, so a run
     without one draws exactly the seed's stream *)
  let net_rng = if Option.is_some cfg.transport then Rng.split rng else rng in
  let net =
    match cfg.transport with
    | None -> Channels
    | Some params ->
        let notify (notice : Transport.notice) =
          if Trace.on tr then
            Trace.emit tr
              (match notice with
              | Transport.N_drop { src; dst; time } -> Drop { src; dst; time }
              | Transport.N_retransmit { src; dst; seq; attempt; time } ->
                  Retransmit { src; dst; seq; attempt; time })
        in
        let tp =
          Transport.create ~notify ~n:cfg.n ~params ~faults:cfg.faults ~channel:cfg.channel
            ~rng:net_rng ()
        in
        if crashes_planned then Stop_and_wait tp else Window tp
  in
  (* the reliable crash-free run builds its pattern as it goes *)
  let live = Option.is_none cfg.transport && not crashes_planned in
  let stop_and_wait = match net with Stop_and_wait _ -> true | Channels | Window _ -> false in
  (* the stop-and-wait's transport: only its own events ask for it *)
  let link () = match net with Stop_and_wait tp -> tp | Channels | Window _ -> assert false in
  let max_retx = Option.fold cfg.transport ~none:0 ~some:(fun p -> p.Transport.max_retx) in
  let env = E.create ~n:cfg.n ~rng:env_rng in
  let states = Array.init cfg.n (fun pid -> P.create ~n:cfg.n ~pid) in
  let builder = Pattern.Builder.create ~n:cfg.n in
  (* A run that is not [live] records its surviving history, numbering
     the entries in emission order, and keeps the kind, TDV and time of
     its checkpoints by seq; the live run allocates neither.  When crashes
     are planned, the protocol state saved with each checkpoint is kept by
     (pid, index). *)
  let history = lazy (History.create ~n:cfg.n) and seq = ref 0 in
  let record f =
    f (Lazy.force history) ~seq:!seq;
    incr seq
  in
  let ckpts = lazy (Hashtbl.create 64) and saved = lazy (Hashtbl.create 64) in
  let msgs =
    ref
      (Array.make (if live then 0 else 256)
         {
           src = 0;
           dst = 0;
           payload = Control.Nothing;
           send_interval = 0;
           recv_interval = -1;
           status = Dead;
           attempts = 0;
           acked = false;
           gen = 0;
         })
  in
  let queue : queued Event_queue.t = Event_queue.create () in
  let interval_events = Array.make cfg.n 0 in
  let ckpt_index = Array.make cfg.n 0 in
  let timer = Array.init cfg.n Fun.id in
  let crashed = Array.make cfg.n false in
  let buffers = Array.make cfg.n [] (* arrivals at a crashed process, reversed *) in
  let recoveries = ref [] in
  let basic = ref 0
  and basic_skipped = ref 0
  and forced = ref 0
  and sent = ref 0
  and owed = ref 0 (* messages owed a delivery: [Flight] or [Replay] *)
  and internal_events = ref 0
  and now = ref 0 in
  let pred_counts = Array.make (Array.length Predicates.names) 0 in
  let violated = Array.make (Array.length expected_implications) false in
  (* messages not yet settled: over the window transport, until
     acknowledged or abandoned; otherwise until delivered *)
  let in_flight () = match net with Window tp -> Transport.in_flight tp | _ -> !owed in
  let set_status m status =
    let owing = function Flight | Replay -> 1 | Delivered | Dead | Undeliv -> 0 in
    owed := !owed - owing m.status + owing status;
    m.status <- status
  in
  (* a checkpoint saves a copy of the protocol state only when a rollback
     may need it back *)
  let save pid index =
    if crashes_planned then Hashtbl.replace (Lazy.force saved) (pid, index) (P.copy states.(pid))
  in
  let take_checkpoint ?(preds = []) pid kind =
    let tdv = P.tdv states.(pid) in
    let index = ckpt_index.(pid) + 1 in
    ckpt_index.(pid) <- index;
    if Trace.on tr then Trace.emit tr (Ckpt { pid; index; kind; time = !now; tdv; preds });
    P.on_checkpoint states.(pid);
    if live then ignore (Pattern.Builder.checkpoint ~kind ?tdv ~time:!now builder pid)
    else begin
      Hashtbl.replace (Lazy.force ckpts) !seq (kind, tdv, !now);
      record (History.checkpoint ~pid ~index);
      save pid index
    end;
    interval_events.(pid) <- 0
  in
  (* Initial checkpoints: the builder records them automatically at
     creation, and the history keeps them implicitly; mirror them in the
     protocol states, and save those states, as a rollback may return to
     them. *)
  for pid = 0 to cfg.n - 1 do
    P.on_checkpoint states.(pid);
    save pid 0;
    if Trace.on tr then
      Trace.emit tr
        (Ckpt { pid; index = 0; kind = Ptypes.Initial; time = 0; tdv = None; preds = [] })
  done;
  let basic_enabled = cfg.basic_period <> (0, 0) in
  let draw_basic_delay () =
    let lo, hi = cfg.basic_period in
    Rng.int_in rng lo hi
  in
  (* Returns the mask of the predicates that fired, so a forced
     checkpoint triggered by this arrival can be traced to its cause. *)
  let record_predicates ~dst ~src payload =
    if P.evaluated = 0 then 0
    else begin
      let fired = P.predicates states.(dst) ~src payload land P.evaluated in
      for i = 0 to Array.length pred_counts - 1 do
        if fired land (1 lsl i) <> 0 then pred_counts.(i) <- pred_counts.(i) + 1
      done;
      for v = 0 to Array.length expected_implications - 1 do
        let weaker, stronger = expected_implications.(v) in
        if fired land weaker <> 0 && P.evaluated land stronger <> 0 && fired land stronger = 0
        then violated.(v) <- true
      done;
      fired
    end
  in
  let schedule_arrival id =
    let m = !msgs.(id) in
    Event_queue.schedule queue
      ~time:(!now + Channel.sample rng cfg.channel)
      (Arrival { dst = m.dst; src = m.src; msg = id; payload = m.payload })
  in
  (* Stop-and-wait: transmit, await the ack, retransmit when the timer
     [Transport.transmit] returns fires, abandon after [max_retx]
     retries.  The message id is the attempt's sequence number. *)
  let at_time ev time = Event_queue.schedule queue ~time ev in
  let send_ack ~redundant id =
    let m = !msgs.(id) in
    Transport.acknowledge (link ()) ~now:!now ~src:m.src ~dst:m.dst ~redundant (at_time (Ack id))
  in
  let transmit id =
    let m = !msgs.(id) in
    m.attempts <- m.attempts + 1;
    let timer =
      Transport.transmit (link ()) ~now:!now ~src:m.src ~dst:m.dst ~seq:id
        ~retx:(m.attempts - 1) (at_time (Packet id))
    in
    Event_queue.schedule queue ~time:timer (Retx { msg = id; gen = m.gen })
  in
  (* (re)arms the loop; while the sender is down only the pending ack is
     forgotten, and its recovery re-arms the loop ([acked] is cleared even
     then, or an ack received before a rollback would block the
     rebuild) *)
  let net_start id =
    let m = !msgs.(id) in
    m.acked <- false;
    if not crashed.(m.src) then begin
      m.gen <- m.gen + 1;
      m.attempts <- 0;
      transmit id
    end
  in
  (* typed graceful degradation: the transport gave up on [msg], which
     keeps the run finite; its send stays out of the pattern *)
  let abandon msg =
    let m = !msgs.(msg) in
    set_status m Undeliv;
    History.undeliverable (Lazy.force history) ~msg;
    if Trace.on tr then Trace.emit tr (Undeliverable { msg; src = m.src; dst = m.dst; time = !now })
  in
  (* A delivery recurses into application reactions (which may send, and a
     transport send produces further effects), hence the mutual recursion
     between delivery, effect processing and the action handlers. *)
  let rec deliver ~src ~dst msg payload =
    let fired = record_predicates ~dst ~src payload in
    if P.must_force states.(dst) ~src payload then begin
      incr forced;
      (* only the trace reads the names *)
      let preds = if Trace.on tr then Predicates.to_names fired else [] in
      take_checkpoint ~preds dst Ptypes.Forced
    end;
    P.absorb states.(dst) ~src payload;
    if live then begin
      Pattern.Builder.recv builder msg;
      decr owed
    end
    else begin
      let m = !msgs.(msg) in
      set_status m Delivered;
      m.recv_interval <- ckpt_index.(dst) + 1;
      record (History.recv ~msg ~dst)
    end;
    if Trace.on tr then Trace.emit tr (Deliver { msg; src; dst; time = !now });
    interval_events.(dst) <- interval_events.(dst) + 1;
    List.iter (do_action dst) (E.on_deliver env ~pid:dst ~src)
  (* a direct recursion, not [List.iter]: no closure per call on the
     reliable path's empty effect lists *)
  and process_effects = function
    | [] -> ()
    | e :: rest ->
        (match e with
        | Transport.Wire { at; wire } -> Event_queue.schedule queue ~time:at (Net wire)
        | Transport.Undeliverable { msg; _ } -> abandon msg
        | Transport.Deliver { src; dst; msg } -> deliver ~src ~dst msg !msgs.(msg).payload);
        process_effects rest
  and send_message ~src ~dst =
    if !sent < cfg.max_messages && src <> dst then begin
      let msg = !sent in
      incr sent;
      incr owed;
      let payload = P.make_payload states.(src) ~dst in
      if not live then begin
        (* doubled by appending to itself, never by an [Array.make]
           seeded with a (maybe young) record: see DESIGN.md § Scaling *)
        if msg = Array.length !msgs then msgs := Array.append !msgs !msgs;
        !msgs.(msg) <-
          {
            src;
            dst;
            payload;
            send_interval = ckpt_index.(src) + 1;
            recv_interval = -1;
            status = Flight;
            attempts = 0;
            acked = false;
            gen = 0;
          };
        record (History.send ~msg ~src ~dst)
      end;
      if Trace.on tr then Trace.emit tr (Send { msg; src; dst; time = !now });
      interval_events.(src) <- interval_events.(src) + 1;
      let effects =
        match net with
        | Channels ->
            if live then begin
              (* the builder's message handles count sends from 0, as [msg] does *)
              ignore (Pattern.Builder.send builder ~src ~dst);
              let delay = Channel.sample rng cfg.channel in
              Event_queue.schedule queue ~time:(!now + delay) (Arrival { dst; src; msg; payload })
            end
            else schedule_arrival msg;
            []
        | Window tp -> Transport.send tp ~now:!now ~src ~dst msg
        | Stop_and_wait _ ->
            net_start msg;
            []
      in
      (* a checkpoint-after-send checkpoint belongs between the send and
         any later event of [src], so take it before processing effects *)
      if P.force_after_send then begin
        incr forced;
        take_checkpoint ~preds:[ "after-send" ] src Ptypes.Forced
      end;
      process_effects effects
    end
  and do_action pid = function
    | Env.Send dst -> send_message ~src:pid ~dst
    | Env.Internal ->
        if live then Pattern.Builder.internal builder pid
        else record (History.internal ~pid);
        if Trace.on tr then Trace.emit tr (Internal { pid; time = !now });
        interval_events.(pid) <- interval_events.(pid) + 1;
        incr internal_events
    | Env.Checkpoint ->
        if interval_events.(pid) > 0 then begin
          incr basic;
          take_checkpoint pid Ptypes.Basic
        end
        else incr basic_skipped
  in
  (* Recovery.  The delivered messages, for the recovery line: a delivery
     is orphaned when the line keeps it but not its send. *)
  let delivered f =
    for id = 0 to !sent - 1 do
      let m = !msgs.(id) in
      match m.status with
      | Delivered -> f m.src m.send_interval m.dst m.recv_interval
      | Flight | Dead | Replay | Undeliv -> ()
    done
  in
  let recover (c : crash) =
    let recover_t0 = Meter.now () in
    let pid = c.victim in
    (* live processes secure their volatile state first *)
    for q = 0 to cfg.n - 1 do
      if (not crashed.(q)) && q <> pid && interval_events.(q) > 0 then begin
        incr forced;
        take_checkpoint ~preds:[ "recovery" ] q Ptypes.Forced
      end
    done;
    (* the victim's bound is its last checkpoint: its volatile suffix is
       about to be discarded *)
    let line = Option.get (Consistency.max_consistent_below delivered ckpt_index) in
    (* roll every process back to its line checkpoint, undoing the events
       after it *)
    let undone = Array.make cfg.n 0 and checkpoints_undone = ref 0 in
    let sends = Array.make cfg.n [] and recvs = Array.make cfg.n [] in
    for q = 0 to cfg.n - 1 do
      let popped = History.rollback (Lazy.force history) ~pid:q ~to_index:line.(q) in
      states.(q) <- P.copy (Hashtbl.find (Lazy.force saved) (q, line.(q)));
      List.iter
        (function
          | History.Send { msg; _ } -> sends.(q) <- msg :: sends.(q)
          | Recv { msg; _ } -> recvs.(q) <- msg :: recvs.(q)
          | Ckpt _ -> incr checkpoints_undone
          | Internal _ -> ())
        (List.rev popped);
      undone.(q) <- List.length popped;
      ckpt_index.(q) <- line.(q);
      interval_events.(q) <- 0;
      if Trace.on tr && undone.(q) > 0 then
        Trace.emit tr (Rollback { pid = q; to_index = line.(q); time = !now })
    done;
    (* per process, oldest first; the last process first *)
    let all l = List.concat (List.rev (Array.to_list l)) in
    let undone_sends = all sends in
    List.iter (fun id -> set_status !msgs.(id) Dead) undone_sends;
    (* up before the replays, so that replayed messages sent by the
       repaired process restart their retransmission loops at once *)
    crashed.(pid) <- false;
    let restarted = Array.make !sent false in
    let restart id =
      if not restarted.(id) then begin
        restarted.(id) <- true;
        net_start id
      end
    in
    let replayed = ref 0 in
    List.iter
      (fun id ->
        let m = !msgs.(id) in
        if m.status <> Dead then begin
          (* the send survived: redeliver from the sender-side log *)
          set_status m Replay;
          m.recv_interval <- -1;
          incr replayed;
          if Trace.on tr then
            Trace.emit tr (Replay { msg = id; src = m.src; dst = m.dst; time = !now });
          if stop_and_wait then restart id else schedule_arrival id
        end)
      (all recvs);
    (* arrivals buffered while the process was down re-enter the channel
       (stop-and-wait never buffers: packets to a crashed process are lost
       and retransmission recovers them) *)
    List.iter
      (fun id ->
        match !msgs.(id).status with
        | Flight | Replay -> schedule_arrival id
        | Dead | Delivered | Undeliv -> ())
      (List.rev buffers.(pid));
    buffers.(pid) <- [];
    if stop_and_wait then
      (* the repaired process lost its retransmission timers with its
         volatile state: re-arm the loop of each of its messages still
         owed a delivery, replays deferred while it was down included *)
      for id = 0 to !sent - 1 do
        let m = !msgs.(id) in
        match m.status with
        | (Flight | Replay) when m.src = pid && not m.acked -> restart id
        | _ -> ()
      done;
    Event_queue.schedule queue ~time:(!now + 1) (Tick timer.(pid));
    if basic_enabled then
      Event_queue.schedule queue ~time:(!now + draw_basic_delay ()) (Basic timer.(pid));
    let events_undone = Array.fold_left ( + ) 0 undone in
    recoveries :=
      {
        crash = c;
        line;
        events_undone;
        checkpoints_undone = !checkpoints_undone;
        messages_undone = List.length undone_sends;
        messages_replayed = !replayed;
      }
      :: !recoveries;
    Meter.add_span Meter.default "runtime.recovery" (Meter.now () -. recover_t0);
    Meter.add Meter.default "runtime.recoveries" 1;
    Meter.add Meter.default "runtime.events_undone" events_undone;
    Meter.add Meter.default "runtime.messages_replayed" !replayed
  in
  (* Prime the queue. *)
  for pid = 0 to cfg.n - 1 do
    Event_queue.schedule queue ~time:(E.initial_tick_delay env ~pid) (Tick pid);
    if basic_enabled then Event_queue.schedule queue ~time:(draw_basic_delay ()) (Basic pid)
  done;
  List.iter (fun c -> Event_queue.schedule queue ~time:c.at (Crash c)) cfg.crashes;
  let sim_t0 = Meter.now () in
  let continue = ref true in
  while !continue do
    match Event_queue.pop queue with
    | None -> continue := false
    | Some (t, ev) -> (
        now := t;
        match ev with
        | Tick id ->
            let pid = id mod cfg.n in
            if id = timer.(pid) && t <= cfg.max_time && !sent < cfg.max_messages then begin
              let { Env.actions; next_tick_in } = E.on_tick env ~pid in
              List.iter (do_action pid) actions;
              match next_tick_in with
              | Some d -> Event_queue.schedule queue ~time:(t + Int.max 1 d) (Tick id)
              | None -> ()
            end
        | Basic id ->
            (* keep checkpointing while the computation still executes
               events: after the send budget is hit, in-flight messages
               keep extending intervals, and those intervals deserve the
               same basic-checkpoint coverage (once the channels drain,
               the clock stops rescheduling) *)
            let pid = id mod cfg.n in
            if
              id = timer.(pid) && t <= cfg.max_time
              && (!sent < cfg.max_messages || in_flight () > 0)
            then begin
              do_action pid Env.Checkpoint;
              Event_queue.schedule queue ~time:(t + draw_basic_delay ()) (Basic id)
            end
        | Arrival { dst; src; msg; payload } -> (
            if live then deliver ~src ~dst msg payload
            else
              match !msgs.(msg).status with
              | Dead | Undeliv | Delivered -> () (* undone send, or stale since a rollback *)
              | Flight | Replay ->
                  if crashed.(dst) then buffers.(dst) <- msg :: buffers.(dst)
                  else deliver ~src ~dst msg payload)
        | Net wire -> (
            match net with
            | Window tp -> process_effects (Transport.handle tp ~now:!now wire)
            | Channels | Stop_and_wait _ -> assert false)
        | Crash c ->
            if crashed.(c.victim) then invalid_arg "Runtime: victim already down";
            (* the volatile suffix is lost now; it is discarded at repair,
               which is equivalent since the process does nothing while
               down *)
            crashed.(c.victim) <- true;
            timer.(c.victim) <- timer.(c.victim) + cfg.n;
            Event_queue.schedule queue ~time:(t + c.repair_delay) (Repair c)
        | Repair c -> recover c
        | Packet id -> (
            let m = !msgs.(id) in
            match m.status with
            | Dead | Undeliv -> () (* stray copy of an undone or abandoned send *)
            | Delivered -> send_ack ~redundant:true id
            | Flight | Replay ->
                if crashed.(m.dst) then Transport.lost (link ()) ~now:t ~src:m.src ~dst:m.dst
                else begin
                  deliver ~src:m.src ~dst:m.dst id m.payload;
                  send_ack ~redundant:false id
                end)
        | Ack id -> (
            let m = !msgs.(id) in
            if crashed.(m.src) then Transport.lost (link ()) ~now:t ~src:m.dst ~dst:m.src
            else
              match m.status with
              | Delivered -> m.acked <- true
              | Flight | Replay | Dead | Undeliv ->
                  (* from [Flight] or [Replay] a stale ack: the delivery it
                     acknowledges was rolled back, and accepting it would
                     silence the loop re-armed at recovery *)
                  ())
        | Retx { msg = id; gen } -> (
            let m = !msgs.(id) in
            if gen = m.gen && (not m.acked) && not crashed.(m.src) then
              match m.status with
              | Dead | Undeliv -> ()
              | Delivered when m.attempts > max_retx ->
                  () (* the receiver has it; only the acks were lost *)
              | Flight | Replay when m.attempts > max_retx -> abandon id
              | Flight | Replay | Delivered -> transmit id))
  done;
  Meter.add_span Meter.default "runtime.sim" (Meter.now () -. sim_t0);
  Meter.add Meter.default "runtime.runs" 1;
  Meter.add Meter.default "runtime.messages" !sent;
  Meter.add Meter.default "runtime.forced_ckpts" !forced;
  Meter.add Meter.default "runtime.basic_ckpts" !basic;
  (* the queue drained, so every message is settled: delivered, abandoned
     or undone *)
  assert (in_flight () = 0);
  let pattern =
    Meter.time Meter.default "runtime.pattern" (fun () ->
        if live then Pattern.Builder.finish builder
        else History.to_pattern ~checkpoint:(Hashtbl.find (Lazy.force ckpts)) (Lazy.force history))
  in
  let metrics =
    {
      Metrics.n = cfg.n;
      protocol = P.name;
      environment = E.name;
      seed = cfg.seed;
      basic = !basic;
      basic_skipped = !basic_skipped;
      forced = !forced;
      messages = Pattern.num_messages pattern;
      internal_events = !internal_events;
      payload_bits_per_msg = P.payload_bits ~n:cfg.n;
      duration = !now;
    }
  in
  (* sorted by name: these lists reach reports and JSON output *)
  let predicate_counts =
    List.combine (Array.to_list Predicates.names) (Array.to_list pred_counts)
    |> List.filter (fun (_, k) -> k > 0)
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let hierarchy_violations =
    List.filteri (fun v _ -> violated.(v)) (Array.to_list expected_implications)
    |> List.map (fun (weaker, stronger) -> (Predicates.name weaker, Predicates.name stronger))
    |> List.sort (fun (a, b) (c, d) ->
           match String.compare a c with 0 -> String.compare b d | r -> r)
  in
  (* stop-and-wait accounts by the messages' fates: a send a rollback
     undid was never accepted *)
  let fates status =
    let k = ref 0 in
    for id = 0 to !sent - 1 do
      if !msgs.(id).status = status then incr k
    done;
    !k
  in
  let transport =
    match net with
    | Channels -> None
    | Window tp -> Some (Transport.stats tp)
    | Stop_and_wait tp ->
        let delivered = fates Delivered and undeliverable = fates Undeliv in
        Some
          {
            (Transport.stats tp) with
            accepted = delivered + undeliverable;
            delivered;
            undeliverable;
          }
  in
  {
    pattern;
    metrics;
    predicate_counts;
    hierarchy_violations;
    transport;
    recoveries = List.rev !recoveries;
  }
