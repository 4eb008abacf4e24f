module Env = Rdt_dist.Env
module Rng = Rdt_dist.Rng
module Channel = Rdt_dist.Channel
module Faults = Rdt_dist.Faults
module Transport = Rdt_dist.Transport
module Event_queue = Rdt_dist.Event_queue
module Pattern = Rdt_pattern.Pattern
module Ptypes = Rdt_pattern.Types
module Trace = Rdt_obs.Trace
module Meter = Rdt_obs.Meter

type config = {
  n : int;
  seed : int;
  env : Env.t;
  protocol : Protocol.t;
  channel : Channel.spec;
  basic_period : int * int;
  max_messages : int;
  max_time : int;
  faults : Faults.spec;
  transport : Transport.params option;
  trace : Trace.t;
  online : bool;
}

let default_config env protocol =
  {
    n = 8;
    seed = 1;
    env;
    protocol;
    channel = Channel.Uniform (5, 100);
    basic_period = (300, 700);
    max_messages = 2000;
    max_time = max_int / 2;
    faults = Faults.none;
    transport = None;
    trace = Trace.null;
    online = false;
  }

let configure ?(n = 8) ?(seed = 1) ?(messages = 2000) ?(channel = Channel.Uniform (5, 100))
    ?(basic_period = (300, 700)) ?(max_time = max_int / 2) ?(faults = Faults.none) ?transport
    ?(trace = Trace.null) ?(online = false) env protocol =
  {
    n;
    seed;
    env;
    protocol;
    channel;
    basic_period;
    max_messages = messages;
    max_time;
    faults;
    transport;
    trace;
    online;
  }

type result = {
  pattern : Pattern.t;
  metrics : Metrics.t;
  predicate_counts : (string * int) list;
  hierarchy_violations : (string * string) list;
  transport : Transport.stats option;
  online : Rdt_check.Online.summary option;
}

(* Implications expected among the named predicates (weaker => stronger in
   the sense of Section 5.2: a less conservative test implies the more
   conservative one). *)
let expected_implications =
  [ ("c1", "c_fdas"); ("c2", "c2'"); ("c2", "c_fdas"); ("c2'", "c_fdas"); ("c_fdas", "c_fdi") ]

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
  if lo < 0 || hi < lo then invalid_arg "Runtime: bad basic period"

(* Messages travel as [Arrival]s over the paper's reliable channels, or as
   [Net] packets of the reliable-delivery transport over a faulty network;
   one run uses one of the two, picked by [cfg.transport]. *)
type queued =
  | Tick of int
  | Basic of int
  | Arrival of { dst : int; src : int; msg : int; payload : Control.t }
  | Net of Transport.wire

(* With a transport the pattern cannot be built incrementally: a message
   the transport abandons ([Undeliverable]) must not appear in it
   (patterns require every message delivered), but whether a send is
   abandoned is only known later.  So the run logs its events and replays
   them into the [Pattern.Builder] at the end, skipping undeliverable
   sends, the scheme [Crash_sim] uses for rolled-back events. *)
type logged =
  | L_send of { msg : int; src : int; dst : int }
  | L_recv of int
  | L_internal of int (* pid *)
  | L_ckpt of { pid : int; kind : Ptypes.ckpt_kind; time : int; tdv : int array option }

let run cfg =
  validate_config cfg;
  let engine = if cfg.online then Some (Rdt_check.Online.create ~n:cfg.n ()) else None in
  let tr =
    match engine with
    | None -> cfg.trace
    | Some e -> Trace.tee cfg.trace (Rdt_check.Online.observer e)
  in
  let (module P : Protocol.S) = cfg.protocol in
  let (module E : Env.S) = cfg.env in
  let rng = Rng.create cfg.seed in
  let env_rng = Rng.split rng in
  (* the network stream is split off only on the transport path, so a run
     without one draws exactly the seed's stream *)
  let tp : int Transport.t option =
    Option.map
      (fun params ->
        let net_rng = Rng.split rng in
        let notify (notice : Transport.notice) =
          if Trace.on tr then
            Trace.emit tr
              (match notice with
              | Transport.N_drop { src; dst; time } -> Drop { src; dst; time }
              | Transport.N_retransmit { src; dst; seq; attempt; time } ->
                  Retransmit { src; dst; seq; attempt; time })
        in
        Transport.create ~notify ~n:cfg.n ~params ~faults:cfg.faults ~channel:cfg.channel
          ~rng:net_rng ())
      cfg.transport
  in
  let live = Option.is_none tp in
  let env = E.create ~n:cfg.n ~rng:env_rng in
  let states = Array.init cfg.n (fun pid -> P.create ~n:cfg.n ~pid) in
  let builder = Pattern.Builder.create ~n:cfg.n in
  let log : logged list ref = ref [] (* reversed; unused when [live] *) in
  let payloads : (int, Control.t) Hashtbl.t = Hashtbl.create 256 in
  let undeliverable : (int, unit) Hashtbl.t = Hashtbl.create 4 in
  let queue : queued Event_queue.t = Event_queue.create () in
  let interval_events = Array.make cfg.n 0 in
  let ckpt_index = Array.make cfg.n 0 in
  let basic = ref 0
  and basic_skipped = ref 0
  and forced = ref 0
  and sent = ref 0
  and delivered = ref 0
  and internal_events = ref 0
  and now = ref 0 in
  let pred_counts : (string, int ref) Hashtbl.t = Hashtbl.create 7 in
  let violations : (string * string, unit) Hashtbl.t = Hashtbl.create 7 in
  (* messages not yet settled: over reliable channels, until they arrive;
     over the transport, until acknowledged or abandoned *)
  let in_flight () =
    match tp with None -> !sent - !delivered | Some tp -> Transport.in_flight tp
  in
  let take_checkpoint ?(preds = []) pid kind =
    let tdv = P.tdv states.(pid) in
    if live then ignore (Pattern.Builder.checkpoint ~kind ?tdv ~time:!now builder pid)
    else log := L_ckpt { pid; kind; time = !now; tdv } :: !log;
    ckpt_index.(pid) <- ckpt_index.(pid) + 1;
    if Trace.on tr then
      Trace.emit tr (Ckpt { pid; index = ckpt_index.(pid); kind; time = !now; tdv; preds });
    P.on_checkpoint states.(pid);
    interval_events.(pid) <- 0
  in
  (* Initial checkpoints: the builder records them automatically at
     creation; mirror them in the protocol states. *)
  Array.iter P.on_checkpoint states;
  if Trace.on tr then
    for pid = 0 to cfg.n - 1 do
      Trace.emit tr
        (Ckpt { pid; index = 0; kind = Ptypes.Initial; time = 0; tdv = None; preds = [] })
    done;
  let basic_enabled = cfg.basic_period <> (0, 0) in
  let draw_basic_delay () =
    let lo, hi = cfg.basic_period in
    Rng.int_in rng lo hi
  in
  (* Returns the names of the predicates that fired, so a forced
     checkpoint triggered by this arrival can be traced to its cause. *)
  let record_predicates ~dst ~src payload =
    let named = P.predicates states.(dst) ~src payload in
    match named with
    | [] -> []
    | _ ->
        List.iter
          (fun (name, v) ->
            if v then
              match Hashtbl.find_opt pred_counts name with
              | Some r -> incr r
              | None -> Hashtbl.add pred_counts name (ref 1))
          named;
        List.iter
          (fun (weaker, stronger) ->
            match (List.assoc_opt weaker named, List.assoc_opt stronger named) with
            | Some true, Some false -> Hashtbl.replace violations (weaker, stronger) ()
            | _ -> ())
          expected_implications;
        List.filter_map (fun (name, v) -> if v then Some name else None) named
  in
  (* A delivery recurses into application reactions (which may send, and a
     transport send produces further effects), hence the mutual recursion
     between delivery, effect processing and the action handlers. *)
  let rec deliver ~src ~dst msg payload =
    let fired = record_predicates ~dst ~src payload in
    if P.must_force states.(dst) ~src payload then begin
      incr forced;
      take_checkpoint ~preds:fired dst Ptypes.Forced
    end;
    P.absorb states.(dst) ~src payload;
    if live then Pattern.Builder.recv builder msg else log := L_recv msg :: !log;
    incr delivered;
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
        | Transport.Undeliverable { msg; src; dst } ->
            Hashtbl.replace undeliverable msg ();
            if Trace.on tr then Trace.emit tr (Undeliverable { msg; src; dst; time = !now })
        | Transport.Deliver { src; dst; msg } -> deliver ~src ~dst msg (Hashtbl.find payloads msg));
        process_effects rest
  and send_message ~src ~dst =
    if !sent < cfg.max_messages && src <> dst then begin
      let msg = !sent in
      incr sent;
      let payload = P.make_payload states.(src) ~dst in
      if Trace.on tr then Trace.emit tr (Send { msg; src; dst; time = !now });
      interval_events.(src) <- interval_events.(src) + 1;
      let effects =
        match tp with
        | None ->
            (* the builder's message handles count sends from 0, as [msg] does *)
            ignore (Pattern.Builder.send builder ~src ~dst);
            let delay = Channel.sample rng cfg.channel in
            Event_queue.schedule queue ~time:(!now + delay) (Arrival { dst; src; msg; payload });
            []
        | Some tp ->
            Hashtbl.replace payloads msg payload;
            log := L_send { msg; src; dst } :: !log;
            Transport.send tp ~now:!now ~src ~dst msg
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
        if live then Pattern.Builder.internal builder pid else log := L_internal pid :: !log;
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
  (* Prime the queue. *)
  for pid = 0 to cfg.n - 1 do
    Event_queue.schedule queue ~time:(E.initial_tick_delay env ~pid) (Tick pid);
    if basic_enabled then Event_queue.schedule queue ~time:(draw_basic_delay ()) (Basic pid)
  done;
  let sim_t0 = Meter.now () in
  let continue = ref true in
  while !continue do
    match Event_queue.pop queue with
    | None -> continue := false
    | Some (t, ev) -> (
        now := t;
        match ev with
        | Tick pid ->
            if t <= cfg.max_time && !sent < cfg.max_messages then begin
              let { Env.actions; next_tick_in } = E.on_tick env ~pid in
              List.iter (do_action pid) actions;
              match next_tick_in with
              | Some d -> Event_queue.schedule queue ~time:(t + max 1 d) (Tick pid)
              | None -> ()
            end
        | Basic pid ->
            (* keep checkpointing while the computation still executes
               events: after the send budget is hit, in-flight messages
               keep extending intervals, and those intervals deserve the
               same basic-checkpoint coverage (once the channels drain,
               the clock stops rescheduling) *)
            if t <= cfg.max_time && (!sent < cfg.max_messages || in_flight () > 0) then begin
              do_action pid Env.Checkpoint;
              Event_queue.schedule queue ~time:(t + draw_basic_delay ()) (Basic pid)
            end
        | Arrival { dst; src; msg; payload } -> deliver ~src ~dst msg payload
        | Net wire -> (
            match tp with
            | Some tp -> process_effects (Transport.handle tp ~now:!now wire)
            | None -> assert false))
  done;
  Meter.add_span Meter.default "runtime.sim" (Meter.now () -. sim_t0);
  Meter.add Meter.default "runtime.runs" 1;
  Meter.add Meter.default "runtime.messages" !sent;
  Meter.add Meter.default "runtime.forced_ckpts" !forced;
  Meter.add Meter.default "runtime.basic_ckpts" !basic;
  (* the queue drained, so every message is settled: delivered or abandoned *)
  assert (in_flight () = 0);
  let pattern =
    Meter.time Meter.default "runtime.pattern" (fun () ->
        if not live then begin
          let handles = Hashtbl.create 256 in
          List.iter
            (function
              | L_send { msg; src; dst } ->
                  if not (Hashtbl.mem undeliverable msg) then
                    Hashtbl.replace handles msg (Pattern.Builder.send builder ~src ~dst)
              | L_recv msg -> Pattern.Builder.recv builder (Hashtbl.find handles msg)
              | L_internal pid -> Pattern.Builder.internal builder pid
              | L_ckpt { pid; kind; time; tdv } ->
                  ignore (Pattern.Builder.checkpoint ~kind ?tdv ~time builder pid))
            (List.rev !log)
        end;
        Pattern.Builder.finish ~final_checkpoints:true builder)
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
      (* delivered messages only, matching the pattern: abandoned sends
         are excluded from both *)
      messages = !sent - Hashtbl.length undeliverable;
      internal_events = !internal_events;
      payload_bits_per_msg = P.payload_bits ~n:cfg.n;
      duration = !now;
    }
  in
  (* sorted traversal: these lists reach reports and JSON output, so
     they must be a pure function of the table contents *)
  let predicate_counts =
    Rdt_dist.Tbl.bindings_sorted ~compare:String.compare pred_counts
    |> List.map (fun (k, v) -> (k, !v))
  in
  let hierarchy_violations =
    Rdt_dist.Tbl.keys_sorted violations
      ~compare:(fun (a, b) (c, d) ->
        match String.compare a c with 0 -> String.compare b d | r -> r)
  in
  {
    pattern;
    metrics;
    predicate_counts;
    hierarchy_violations;
    transport = Option.map Transport.stats tp;
    online = Option.map Rdt_check.Online.summary engine;
  }
