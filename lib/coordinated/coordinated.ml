module Env = Rdt_dist.Env
module Rng = Rdt_dist.Rng
module Channel = Rdt_dist.Channel
module Event_queue = Rdt_dist.Event_queue
module Pattern = Rdt_pattern.Pattern
module Ptypes = Rdt_pattern.Types

type algo = Chandy_lamport | Koo_toueg

type config = {
  algo : algo;
  n : int;
  seed : int;
  env : Env.t;
  initiation_period : int;
  max_messages : int;
  max_time : int;
}

let default_config algo env =
  {
    algo;
    n = 8;
    seed = 1;
    env;
    initiation_period = 500;
    max_messages = 2000;
    max_time = max_int / 2;
  }

type round = {
  id : int;
  initiated_at : int;
  completed_at : int;
  participants : int list;
  cut : int array;
  channel_state : int list;
  control_messages : int;
  deferred_sends : int;
}

type metrics = {
  app_messages : int;
  control_messages : int;
  rounds_completed : int;
  checkpoints_taken : int;
  mean_participants : float;
  mean_latency : float;
}

type result = { pattern : Pattern.t; rounds : round list; metrics : metrics }

let markers_per_snapshot ~n = n * (n - 1)

type control =
  | Marker of int (* Chandy-Lamport: snapshot id *)
  | Request of int (* Koo-Toueg: round id *)
  | Reply of int
  | Commit of int

type queued =
  | Tick of int
  | Initiate
  | App of { src : int; dst : int; handle : int (* pattern message handle *) }
  | Control of { src : int; dst : int; msg : control }

(* the round in progress *)
type open_round = {
  o_id : int;
  o_initiated_at : int;
  o_control_before : int;
  mutable o_participants : int list; (* reversed *)
}

(* what both algorithms share: clock, network, budget, rounds *)
type engine = {
  cfg : config;
  rng : Rng.t;
  builder : Pattern.Builder.b;
  queue : queued Event_queue.t;
  fifo : int array array option; (* last scheduled arrival per ordered channel *)
  last_ckpt : int array; (* index of each process's latest checkpoint *)
  mutable now : int;
  mutable sent : int;
  mutable control : int;
  mutable current : open_round option;
  mutable next_id : int;
  mutable rounds : round list; (* reversed *)
}

(* an algorithm is the engine's reactions to its events *)
type handlers = {
  initiate : open_round -> unit; (* P0 starts the round just opened *)
  hold : src:int -> dst:int -> bool; (* defer this application send? *)
  on_app : src:int -> dst:int -> int -> unit; (* before the receipt *)
  on_control : src:int -> dst:int -> control -> unit;
}

let validate cfg =
  if cfg.n < 2 then invalid_arg "Coordinated: n must be >= 2";
  if cfg.initiation_period < 1 then invalid_arg "Coordinated: initiation_period must be >= 1";
  if cfg.max_messages < 0 then invalid_arg "Coordinated: negative message budget"

(* the CIC runtime's default channel, so coordinated and CIC runs see the
   same delays *)
let channel = Channel.Uniform (5, 100)

let arrival e ~src ~dst =
  let t = e.now + Channel.sample e.rng channel in
  match e.fifo with
  | None -> t
  | Some last ->
      let t = max t (last.(src).(dst) + 1) in
      last.(src).(dst) <- t;
      t

let send_control e ~src ~dst msg =
  e.control <- e.control + 1;
  Event_queue.schedule e.queue ~time:(arrival e ~src ~dst) (Control { src; dst; msg })

(* the one budgeted application send path *)
let send_app e ~hold ~src ~dst =
  if e.sent < e.cfg.max_messages && src <> dst && not (hold ~src ~dst) then begin
    e.sent <- e.sent + 1;
    let handle = Pattern.Builder.send e.builder ~src ~dst in
    Event_queue.schedule e.queue ~time:(arrival e ~src ~dst) (App { src; dst; handle })
  end

let checkpoint e pid =
  e.last_ckpt.(pid) <- Pattern.Builder.checkpoint ~kind:Ptypes.Basic ~time:e.now e.builder pid;
  Option.iter (fun o -> o.o_participants <- pid :: o.o_participants) e.current

let open_round e =
  let o =
    { o_id = e.next_id; o_initiated_at = e.now; o_control_before = e.control; o_participants = [] }
  in
  e.next_id <- e.next_id + 1;
  e.current <- Some o;
  o

let close_round e o ~channel_state ~deferred_sends =
  e.rounds <-
    {
      id = o.o_id;
      initiated_at = o.o_initiated_at;
      completed_at = e.now;
      participants = List.rev o.o_participants;
      cut = Array.copy e.last_ckpt;
      channel_state;
      control_messages = e.control - o.o_control_before;
      deferred_sends;
    }
    :: e.rounds;
  e.current <- None;
  if e.sent < e.cfg.max_messages && e.now <= e.cfg.max_time then
    Event_queue.schedule e.queue ~time:(e.now + e.cfg.initiation_period) Initiate

(* Chandy-Lamport: marker floods, channel-state recording; FIFO arrival
   is the engine's [fifo] *)
let chandy_lamport e =
  let n = e.cfg.n in
  let recorded = Array.make n false in
  let closed = Array.make_matrix n n false (* marker received on channel src -> dst *) in
  let open_channels = ref 0 in
  let collected = ref [] (* channel-state message ids, reversed *) in
  let record o pid =
    recorded.(pid) <- true;
    checkpoint e pid;
    for dst = 0 to n - 1 do
      if dst <> pid then send_control e ~src:pid ~dst (Marker o.o_id)
    done
  in
  let initiate o =
    Array.fill recorded 0 n false;
    Array.iter (fun row -> Array.fill row 0 n false) closed;
    open_channels := markers_per_snapshot ~n;
    collected := [];
    record o 0
  in
  let on_control ~src ~dst = function
    | Marker id -> (
        match e.current with
        | Some o when o.o_id = id ->
            if not recorded.(dst) then record o dst;
            if not closed.(src).(dst) then begin
              closed.(src).(dst) <- true;
              decr open_channels
            end;
            (* every channel closed: every process has recorded and flooded *)
            if !open_channels = 0 then
              close_round e o ~channel_state:(List.rev !collected) ~deferred_sends:0
        | Some _ | None -> invalid_arg "Coordinated: marker outside its snapshot")
    | Request _ | Reply _ | Commit _ -> assert false
  in
  let on_app ~src ~dst handle =
    (* a message arriving on a still-open channel after the receiver
       recorded belongs to the channel's state *)
    if Option.is_some e.current && recorded.(dst) && not closed.(src).(dst) then
      collected := handle :: !collected
  in
  { initiate; hold = (fun ~src:_ ~dst:_ -> false); on_app; on_control }

(* per-process two-phase state *)
type pstate = {
  mutable received_from : bool array; (* since the last checkpoint taken *)
  mutable tentative : bool;
  mutable round : int; (* the round of the tentative checkpoint *)
  mutable requester : int; (* -1 for the initiator *)
  mutable awaiting : int; (* replies still expected from the cohort *)
  mutable children : int list; (* cohort, for the commit wave *)
  mutable deferred : int list; (* destinations of sends deferred while tentative *)
}

(* Koo-Toueg: cohort tree, deferred sends, commit wave *)
let koo_toueg e =
  let n = e.cfg.n in
  let ps =
    Array.init n (fun _ ->
        {
          received_from = Array.make n false;
          tentative = false;
          round = -1;
          requester = -1;
          awaiting = 0;
          children = [];
          deferred = [];
        })
  in
  let deferred_sends = ref 0 in
  let hold ~src ~dst =
    let st = ps.(src) in
    st.tentative
    && begin
         incr deferred_sends;
         st.deferred <- dst :: st.deferred;
         true
       end
  in
  let take_tentative pid r ~requester =
    let st = ps.(pid) in
    st.tentative <- true;
    st.round <- r;
    st.requester <- requester;
    checkpoint e pid;
    (* the cohort: everyone this process received from since its last
       checkpoint *)
    let cohort = ref [] in
    Array.iteri
      (fun q got -> if got && q <> pid && q <> requester then cohort := q :: !cohort)
      st.received_from;
    st.received_from <- Array.make n false;
    st.children <- !cohort;
    st.awaiting <- List.length !cohort;
    List.iter (fun q -> send_control e ~src:pid ~dst:q (Request r)) !cohort;
    st.awaiting = 0 (* true when the subtree is trivially done *)
  in
  let commit pid id =
    let st = ps.(pid) in
    (* a process in two cohorts gets a Commit from each parent; channels
       are not FIFO, so the second can arrive after the next round's
       Request and must not commit that round's tentative checkpoint *)
    if st.tentative && st.round = id then begin
      st.tentative <- false;
      List.iter (fun q -> send_control e ~src:pid ~dst:q (Commit id)) st.children;
      st.children <- [];
      (* release the deferred sends *)
      let dests = List.rev st.deferred in
      st.deferred <- [];
      List.iter (fun dst -> send_app e ~hold ~src:pid ~dst) dests;
      if st.requester = -1 then
        Option.iter
          (fun o -> close_round e o ~channel_state:[] ~deferred_sends:!deferred_sends)
          e.current;
      st.requester <- -1
    end
  in
  let subtree_done pid id =
    (* this participant's whole request subtree has answered *)
    let st = ps.(pid) in
    if st.requester >= 0 then send_control e ~src:pid ~dst:st.requester (Reply id)
    else commit pid id
  in
  let initiate o =
    deferred_sends := 0;
    if take_tentative 0 o.o_id ~requester:(-1) then subtree_done 0 o.o_id
  in
  let on_control ~src ~dst = function
    | Request r ->
        if ps.(dst).tentative then send_control e ~src:dst ~dst:src (Reply r)
        else if take_tentative dst r ~requester:src then subtree_done dst r
    | Reply r ->
        let st = ps.(dst) in
        st.awaiting <- st.awaiting - 1;
        if st.awaiting = 0 then subtree_done dst r
    | Commit r -> commit dst r
    | Marker _ -> assert false
  in
  let on_app ~src ~dst _ = ps.(dst).received_from.(src) <- true in
  { initiate; hold; on_app; on_control }

let run cfg =
  validate cfg;
  let (module E : Env.S) = cfg.env in
  let rng = Rng.create cfg.seed in
  let env = E.create ~n:cfg.n ~rng:(Rng.split rng) in
  let e =
    {
      cfg;
      rng;
      builder = Pattern.Builder.create ~n:cfg.n;
      queue = Event_queue.create ();
      fifo =
        (match cfg.algo with
        | Chandy_lamport -> Some (Array.make_matrix cfg.n cfg.n 0)
        | Koo_toueg -> None);
      last_ckpt = Array.make cfg.n 0;
      now = 0;
      sent = 0;
      control = 0;
      current = None;
      next_id = 0;
      rounds = [];
    }
  in
  let h = match cfg.algo with Chandy_lamport -> chandy_lamport e | Koo_toueg -> koo_toueg e in
  let do_action pid = function
    | Env.Send dst -> send_app e ~hold:h.hold ~src:pid ~dst
    | Env.Internal -> Pattern.Builder.internal e.builder pid
    | Env.Checkpoint -> () (* local checkpoint requests are the algorithm's job *)
  in
  for pid = 0 to cfg.n - 1 do
    Event_queue.schedule e.queue ~time:(E.initial_tick_delay env ~pid) (Tick pid)
  done;
  Event_queue.schedule e.queue ~time:cfg.initiation_period Initiate;
  let continue = ref true in
  while !continue do
    match Event_queue.pop e.queue with
    | None -> continue := false
    | Some (t, ev) -> (
        e.now <- t;
        match ev with
        | Tick pid ->
            if t <= cfg.max_time && e.sent < cfg.max_messages then begin
              let { Env.actions; next_tick_in } = E.on_tick env ~pid in
              List.iter (do_action pid) actions;
              match next_tick_in with
              | Some d -> Event_queue.schedule e.queue ~time:(t + max 1 d) (Tick pid)
              | None -> ()
            end
        | Initiate ->
            if e.sent < cfg.max_messages && Option.is_none e.current then h.initiate (open_round e)
        | App { src; dst; handle } ->
            h.on_app ~src ~dst handle;
            Pattern.Builder.recv e.builder handle;
            List.iter (do_action dst) (E.on_deliver env ~pid:dst ~src)
        | Control { src; dst; msg } -> h.on_control ~src ~dst msg)
  done;
  if Option.is_some e.current then invalid_arg "Coordinated: run ended with an unfinished round";
  let pattern = Pattern.Builder.finish e.builder in
  let rounds = List.rev e.rounds in
  let nrounds = List.length rounds in
  let mean f =
    if nrounds = 0 then 0.0
    else List.fold_left (fun a r -> a +. f r) 0.0 rounds /. float_of_int nrounds
  in
  {
    pattern;
    rounds;
    metrics =
      {
        app_messages = e.sent;
        control_messages = e.control;
        rounds_completed = nrounds;
        checkpoints_taken = Array.fold_left ( + ) 0 e.last_ckpt;
        mean_participants = mean (fun r -> float_of_int (List.length r.participants));
        mean_latency = mean (fun r -> float_of_int (r.completed_at - r.initiated_at));
      };
  }
