module P = Rdt_pattern.Pattern
module T = Rdt_pattern.Types
module Vclock = Rdt_dist.Vclock
module Trace = Rdt_obs.Trace
module History = Rdt_pattern.History

exception Inconsistent = History.Inconsistent

let bad fmt = Printf.ksprintf (fun s -> raise (Inconsistent s)) fmt

(* ------------------------------------------------------------------ *)
(* The incremental core                                                *)
(* ------------------------------------------------------------------ *)

(* One [core] is the R-graph of the events applied so far, with per-node
   reachability kept incrementally.  Nodes are checkpoints; each process
   additionally owns one OPEN node — the checkpoint that will close its
   current interval.  It is where message edges attach (a message sent or
   delivered in interval I_{i,x} touches C_{i,x}, which does not exist yet
   at event time), and it doubles as the Final checkpoint that
   [Builder.finish] would append if the run stopped here.

   Per node [v] we keep:
   - [max_reach.(v)]: per process [i], the largest checkpoint index of
     [i] with an R-path to [v] (the x* of the offline checker).  The
     local edges C(i,x) -> C(i,x+1) make the set of nodes reaching [v]
     downward closed per process, so this vector IS that set: C(i,x)
     reaches [v] iff [x < max_reach.(v).(i)].  Stored as a sparse
     {!Vclock} with a +1 offset — entry 0 encodes "no path", entry [x+1]
     encodes index [x] — so a node only pays for the processes that
     actually reach it.  [max_reach.(v)] at [owner v] starts at
     [cindex v]: reachability is reflexive in the offline R-graph.  Edge
     insertion restores the closure invariant (for every edge (u,w),
     max_reach(u) <= max_reach(w) entry-wise) by worklist propagation of
     {!Vclock.join}s; a node is re-queued only when an entry of its
     vector rose.
   - [on_cycle.(v)]: [v] lies on a Z-cycle, i.e. some edge u -> v has
     [v] reaching [u].  Tested on every absorb along u -> v, the only
     moments that [max_reach.(u)] can come to cover [v].
   - [tdv.(v)]: while open, an alias of the owner's live TDV vector (the
     snapshot a Final here would record); frozen when the checkpoint is
     taken — exactly the [Tdv.compute] replay, down to its sharing rule:
     a process hands out one frozen copy of its vector, to send payloads
     and to its checkpoint, until a delivery or a checkpoint changes the
     vector.  Sparse, like everything per-process here: at n = 10^4 a
     node touched by a handful of neighbours must cost O(touched), not
     O(n).

   A pair (v, i) is a violation iff [max_reach.(v).(i)] exceeds what the
   TDV tracks: [tdv.(v).(i)] for [i <> owner v], and [cindex v] for
   [i = owner v] (a same-process R-path backwards in time is never
   trackable, Section 4.1.2 of the paper).  For closed nodes both sides
   are frozen or monotone, so one [closed_bad] flag latches the first
   such violation; for open nodes both sides still move, so the
   per-process verdict is recomputed — only for processes touched by the
   event — in [settle].  Every join and every verdict scan is one merged
   pass over sparse vectors ({!Vclock.join}, {!Vclock.iter2}), never a
   lookup per entry. *)

(* Messages are keyed by their trace id. *)
module Msgs = Rdt_dist.Tbl.Int

(* The per-entry callbacks of the joins and verdict scans are built once
   per core and read their arguments from this record, so propagating an
   edge or settling a process allocates no closure.  [owner]/[index]/[tdv]
   describe the node (or process) under scan; [rose] and [bad] are its
   results. *)
type scan = {
  mutable owner : int;
  mutable index : int;
  mutable tdv : Vclock.t;
  mutable rose : bool;
  mutable bad : bool;
}

(* a join into a closed node: an entry rose, and is it past what the
   node tracks? *)
let closed_rise s i enc =
  s.rose <- true;
  let allowed = if i = s.owner then s.index else Vclock.get s.tdv i in
  if enc - 1 > allowed then s.bad <- true

let open_rise s _ _ = s.rose <- true

(* a reached entry of another process past what the vector tracks *)
let untracked s i enc tracked = if i <> s.owner && enc - 1 > tracked then s.bad <- true

(* A sent message: the sender's node at send time and its payload, the
   sender's frozen vector. *)
type sent = { slot : int; payload : Vclock.t }

type core = {
  n : int;
  mutable cap : int; (* capacity of the node arrays, >= num_nodes *)
  mutable num_nodes : int;
  mutable owner : int array;
  mutable cindex : int array;
  mutable closed : bool array;
  mutable succ : int list array;
  mutable max_reach : Vclock.t array; (* +1-encoded: 0 = unreached, x+1 = index x *)
  mutable on_cycle : bool array;
  mutable tdv : Vclock.t array;
  open_slot : int array; (* pid -> its open node *)
  open_events : int array; (* events in the open interval; 0 = no Final here *)
  vectors : Vclock.t array; (* live TDV vectors, as in Tdv.compute *)
  frozen : Vclock.t array; (* pid -> current frozen copy; dummy_vclock = none *)
  by_index : int array array; (* by_index.(pid).(x) = node of C_{pid,x}, open one included *)
  sent : sent Msgs.t;
  mutable work : int array; (* propagation worklist, FIFO in [work_head, work_tail) *)
  mutable work_head : int;
  mutable work_tail : int;
  scan : scan;
  on_closed_rise : int -> int -> unit; (* [closed_rise scan] *)
  on_open_rise : int -> int -> unit; (* [open_rise scan] *)
  on_untracked : int -> int -> int -> unit; (* [untracked scan] *)
  dirty : bool array; (* pid -> open verdict needs recomputing *)
  open_bad : bool array;
  mutable open_bad_count : int;
  mutable closed_bad : bool; (* some closed node has a violation; latched *)
  mutable has_cycle : bool;
}

let dummy_vclock = Vclock.create ~n:1

let grow c =
  let new_cap = 2 * c.cap in
  let extend a fill =
    let b = Array.make new_cap fill in
    Array.blit a 0 b 0 c.num_nodes;
    b
  in
  c.owner <- extend c.owner 0;
  c.cindex <- extend c.cindex 0;
  c.closed <- extend c.closed false;
  c.succ <- extend c.succ [];
  c.max_reach <- extend c.max_reach dummy_vclock;
  c.on_cycle <- extend c.on_cycle false;
  c.tdv <- extend c.tdv dummy_vclock;
  c.cap <- new_cap

let new_node c ~owner ~index ~tdv =
  if c.num_nodes = c.cap then grow c;
  let v = c.num_nodes in
  c.num_nodes <- v + 1;
  c.owner.(v) <- owner;
  c.cindex.(v) <- index;
  c.closed.(v) <- false;
  c.succ.(v) <- [];
  let mr = Vclock.create ~n:c.n in
  Vclock.set mr owner (index + 1);
  c.max_reach.(v) <- mr;
  c.on_cycle.(v) <- false;
  c.tdv.(v) <- tdv;
  (* indices are dense per process ([core_ckpt] enforces the order) *)
  let nodes = c.by_index.(owner) in
  if index = Array.length nodes then begin
    let grown = Array.make (2 * index) 0 in
    Array.blit nodes 0 grown 0 index;
    c.by_index.(owner) <- grown
  end;
  c.by_index.(owner).(index) <- v;
  v

(* The one frozen copy of [pid]'s vector, made on first demand after the
   vector last changed.  Payloads and checkpoint TDVs are never mutated,
   so they all share it. *)
let freeze c pid =
  if c.frozen.(pid) == dummy_vclock then c.frozen.(pid) <- Vclock.copy c.vectors.(pid);
  c.frozen.(pid)

(* Propagate along the edge u -> w: raise [max_reach.(w)] to cover
   [max_reach.(u)], one vector-clock join linear in both vectors' nonzero
   entries; true iff an entry rose.  A raised entry past what a closed
   node tracks latches [closed_bad]; on an open node it marks the owner
   for [settle].  If [w] reaches [u] ([max_reach.(u)] covers [cindex w]
   at [owner w], by downward closure), the edge closes a cycle through
   [w]: tested before the join, whether or not [w] grows. *)
let absorb c u w =
  let owner = c.owner.(w) and index = c.cindex.(w) and s = c.scan in
  if Vclock.get c.max_reach.(u) owner > index then begin
    c.on_cycle.(w) <- true;
    c.has_cycle <- true
  end;
  s.rose <- false;
  if c.closed.(w) then begin
    s.owner <- owner;
    s.index <- index;
    s.tdv <- c.tdv.(w);
    s.bad <- false;
    Vclock.join c.max_reach.(w) c.max_reach.(u) ~f:c.on_closed_rise;
    if s.bad then c.closed_bad <- true
  end
  else begin
    Vclock.join c.max_reach.(w) c.max_reach.(u) ~f:c.on_open_rise;
    if s.rose then c.dirty.(owner) <- true
  end;
  s.rose

(* Append to the worklist; when the array is full, slide the live part
   down over what was popped, or double it if over half is live. *)
let enqueue c v =
  if c.work_tail = Array.length c.work then begin
    let live = c.work_tail - c.work_head in
    let dst = if 2 * live > Array.length c.work then Array.make (2 * live) 0 else c.work in
    Array.blit c.work c.work_head dst 0 live;
    c.work <- dst;
    c.work_head <- 0;
    c.work_tail <- live
  end;
  c.work.(c.work_tail) <- v;
  c.work_tail <- c.work_tail + 1

let rec absorb_succs c z = function
  | [] -> ()
  | w :: rest ->
      if absorb c z w then enqueue c w;
      absorb_succs c z rest

let add_edge c u w =
  if not (List.mem w c.succ.(u)) then begin
    c.succ.(u) <- w :: c.succ.(u);
    if absorb c u w then begin
      c.work_head <- 0;
      c.work_tail <- 0;
      enqueue c w;
      while c.work_head < c.work_tail do
        let z = c.work.(c.work_head) in
        c.work_head <- c.work_head + 1;
        absorb_succs c z c.succ.(z)
      done
    end
  end

let core_send c ~msg ~src =
  Msgs.replace c.sent msg { slot = c.open_slot.(src); payload = freeze c src };
  c.open_events.(src) <- c.open_events.(src) + 1;
  c.dirty.(src) <- true

let core_deliver c ~msg ~dst =
  let { slot = u; payload } =
    match Msgs.find c.sent msg with
    | s -> s
    | exception Not_found -> bad "surviving delivery of rolled-back send %d" msg
  in
  Vclock.merge c.vectors.(dst) payload;
  c.frozen.(dst) <- dummy_vclock;
  c.open_events.(dst) <- c.open_events.(dst) + 1;
  c.dirty.(dst) <- true;
  add_edge c u c.open_slot.(dst)

let core_internal c ~pid =
  c.open_events.(pid) <- c.open_events.(pid) + 1;
  c.dirty.(pid) <- true

let core_ckpt c ~pid ~index =
  let w = c.open_slot.(pid) in
  if c.cindex.(w) <> index then
    bad "checkpoint %d of pid %d out of order (expected index %d)" index pid c.cindex.(w);
  let frozen = freeze c pid in
  c.tdv.(w) <- frozen;
  c.closed.(w) <- true;
  (* only processes with a path into [w] can violate; walk the sparse
     entries against the TDV in one pass instead of all n.  i = pid
     cannot be violated here: no later checkpoint of pid exists yet *)
  let s = c.scan in
  s.owner <- pid;
  s.bad <- false;
  Vclock.iter2 c.max_reach.(w) frozen ~f:c.on_untracked;
  if s.bad then c.closed_bad <- true;
  Vclock.set c.vectors.(pid) pid (index + 1);
  c.frozen.(pid) <- dummy_vclock;
  let w' = new_node c ~owner:pid ~index:(index + 1) ~tdv:c.vectors.(pid) in
  c.open_slot.(pid) <- w';
  c.open_events.(pid) <- 0;
  c.dirty.(pid) <- true;
  add_edge c w w'

(* Exclude an undeliverable message's send from the pattern (mirroring
   [Replay.rebuild]): sends create no edges and no TDV effect, so the
   only retraction needed is the open-interval event count. *)
let core_retract_send c ~msg =
  (match Msgs.find_opt c.sent msg with
  | Some { slot = u; _ } when not c.closed.(u) ->
      let src = c.owner.(u) in
      c.open_events.(src) <- c.open_events.(src) - 1;
      c.dirty.(src) <- true
  | _ -> ());
  Msgs.remove c.sent msg

let core_create ~n =
  let cap = max 16 (4 * n) in
  let scan = { owner = 0; index = 0; tdv = dummy_vclock; rose = false; bad = false } in
  let c =
    {
      n;
      cap;
      num_nodes = 0;
      owner = Array.make cap 0;
      cindex = Array.make cap 0;
      closed = Array.make cap false;
      succ = Array.make cap [];
      max_reach = Array.make cap dummy_vclock;
      on_cycle = Array.make cap false;
      tdv = Array.make cap dummy_vclock;
      open_slot = Array.make n 0;
      open_events = Array.make n 0;
      vectors = Array.init n (fun _ -> Vclock.create ~n);
      frozen = Array.make n dummy_vclock;
      by_index = Array.init n (fun _ -> Array.make 4 0);
      sent = Msgs.create 64;
      work = Array.make 16 0;
      work_head = 0;
      work_tail = 0;
      scan;
      on_closed_rise = closed_rise scan;
      on_open_rise = open_rise scan;
      on_untracked = untracked scan;
      dirty = Array.make n false;
      open_bad = Array.make n false;
      open_bad_count = 0;
      closed_bad = false;
      has_cycle = false;
    }
  in
  (* the builder takes C_{i,0} at creation; mirror that *)
  for pid = 0 to n - 1 do
    c.open_slot.(pid) <- new_node c ~owner:pid ~index:0 ~tdv:c.vectors.(pid);
    core_ckpt c ~pid ~index:0
  done;
  c

let recompute_open_bad c pid =
  if c.open_events.(pid) = 0 then false
  else begin
    let s = c.scan in
    s.owner <- pid;
    s.bad <- false;
    Vclock.iter2 c.max_reach.(c.open_slot.(pid)) c.vectors.(pid) ~f:c.on_untracked;
    s.bad
  end

(* ------------------------------------------------------------------ *)
(* The engine: surviving history + rollback-triggered rebuild         *)
(* ------------------------------------------------------------------ *)

type t = {
  n : int;
  track_open : bool;
  mutable core : core;
  history : History.t;
  mutable seen : int;
  mutable first_violation : int option;
  mutable rebuilds : int;
  mutable orphans : int list;
      (* surviving deliveries whose send was rolled back: transiently legal
         mid-cascade (the receiver's own rollback has not been observed
         yet), inconsistent if still present when the stream ends *)
}

let create ?(track_open = true) ~n () =
  if n <= 0 then invalid_arg "Online.create: n must be positive";
  {
    n;
    track_open;
    core = core_create ~n;
    history = History.create ~n;
    seen = 0;
    first_violation = None;
    rebuilds = 0;
    orphans = [];
  }

let n t = t.n

let track_open t = t.track_open

let events_seen t = t.seen

let rdt_so_far t =
  (not t.core.closed_bad) && ((not t.track_open) || t.core.open_bad_count = 0)

let first_violation t = t.first_violation

let zcycle t = t.core.has_cycle

let rebuilds t = t.rebuilds

let history t = t.history

let orphan_messages t = List.rev t.orphans

let check_pid t pid what =
  if pid < 0 || pid >= t.n then bad "%s: pid %d out of range" what pid

(* settle the per-process open verdicts touched by the event *)
let settle t =
  let c = t.core in
  for pid = 0 to c.n - 1 do
    if c.dirty.(pid) then begin
      c.dirty.(pid) <- false;
      let b = recompute_open_bad c pid in
      if b <> c.open_bad.(pid) then begin
        c.open_bad.(pid) <- b;
        c.open_bad_count <- (c.open_bad_count + if b then 1 else -1)
      end
    end
  done

(* settle, then latch the first-violation index *)
let finish_step t =
  settle t;
  if t.first_violation = None && not (rdt_so_far t) then t.first_violation <- Some t.seen;
  t.seen <- t.seen + 1

let op_send t ~msg ~src ~dst =
  History.send t.history ~seq:t.seen ~msg ~src ~dst;
  core_send t.core ~msg ~src

let op_deliver t ~msg ~dst =
  History.recv t.history ~seq:t.seen ~msg ~dst;
  core_deliver t.core ~msg ~dst

let op_internal t ~pid =
  History.internal t.history ~seq:t.seen ~pid;
  core_internal t.core ~pid

let op_checkpoint t ~pid ~index =
  History.checkpoint t.history ~seq:t.seen ~pid ~index;
  core_ckpt t.core ~pid ~index

let op_undeliverable t ~msg =
  History.undeliverable t.history ~msg;
  core_retract_send t.core ~msg

let rebuild t =
  t.rebuilds <- t.rebuilds + 1;
  let c = core_create ~n:t.n in
  t.core <- c;
  t.orphans <- [];
  History.iter t.history (fun pid e ->
      match e with
      | Send { msg; _ } ->
          if not (History.is_undeliverable t.history msg) then core_send c ~msg ~src:pid
      | Recv { msg; _ } ->
          (* a delivery can outlive its send mid-cascade: the sender rolled
             back first and the receiver's rollback has not arrived yet.
             Exclude it from the rebuilt state; it must be popped by a
             later rollback for the stream to end consistently. *)
          if Msgs.mem c.sent msg then core_deliver c ~msg ~dst:pid
          else t.orphans <- msg :: t.orphans
      | Internal _ -> core_internal c ~pid
      | Ckpt { index; _ } -> core_ckpt c ~pid ~index);
  (* every open verdict is stale; settle them all *)
  for pid = 0 to t.n - 1 do
    c.dirty.(pid) <- true
  done

let op_rollback t ~pid ~to_index =
  ignore (History.rollback t.history ~pid ~to_index);
  rebuild t

let send t ~msg ~src ~dst =
  op_send t ~msg ~src ~dst;
  finish_step t

let deliver t ~msg ~dst =
  op_deliver t ~msg ~dst;
  finish_step t

let internal t ~pid =
  op_internal t ~pid;
  finish_step t

let checkpoint t ~pid ~index =
  op_checkpoint t ~pid ~index;
  finish_step t

let observe t (ev : Trace.event) =
  (match ev with
  | Meta _ | Verdict _ | Retransmit _ | Drop _ | Replay _ ->
      (* transport noise and annotations: no pattern effect (a replayed
         delivery shows up as a fresh Deliver) *)
      ()
  | Send { msg; src; dst; _ } -> op_send t ~msg ~src ~dst
  | Deliver { msg; dst; _ } -> op_deliver t ~msg ~dst
  | Internal { pid; _ } -> op_internal t ~pid
  | Ckpt { pid; index; kind; _ } ->
      check_pid t pid "ckpt";
      (* the initial C_{i,0} is taken at creation, like the builder's *)
      if kind <> T.Initial then op_checkpoint t ~pid ~index
  | Undeliverable { msg; _ } -> op_undeliverable t ~msg
  | Rollback { pid; to_index; _ } -> op_rollback t ~pid ~to_index);
  finish_step t

let observer t = Trace.observer (observe t)

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let find_node t (i, x) =
  check_pid t i "query";
  let c = t.core in
  if x >= 0 && x <= c.cindex.(c.open_slot.(i)) then c.by_index.(i).(x)
  else invalid_arg (Printf.sprintf "Online: C(%d,%d) does not exist" i x)

let trackable t (i, x) (j, y) =
  let _ = find_node t (i, x) and w = find_node t (j, y) in
  if i = j then x <= y else Vclock.get t.core.tdv.(w) i >= x

let reaches t ((i, x) as a) b =
  let _ = find_node t a and w = find_node t b in
  Vclock.get t.core.max_reach.(w) i > x

let in_cycle t a = t.core.on_cycle.(find_node t a)

let num_checkpoints t = t.core.num_nodes - t.n

(* a node contributes to the verdict iff it is a real checkpoint, or —
   when tracking open intervals — the Final that [Builder.finish] would
   append (only appended when the interval has events) *)
let eligible t v =
  let c = t.core in
  c.closed.(v) || (t.track_open && c.open_events.(c.owner.(v)) > 0)

let checked t =
  let c = t.core in
  let total = ref 0 in
  for v = 0 to c.num_nodes - 1 do
    (* +1 encoding: a stored (nonzero) entry is exactly a reached pair *)
    if eligible t v then total := !total + Vclock.nnz c.max_reach.(v)
  done;
  !total

type violation = { from_ckpt : T.ckpt_id; to_ckpt : T.ckpt_id; tracked : int }

let violations t =
  let c = t.core in
  let acc = ref [] in
  for v = 0 to c.num_nodes - 1 do
    if eligible t v then begin
      let j = c.owner.(v) and y = c.cindex.(v) in
      Vclock.iter2 c.max_reach.(v) c.tdv.(v) ~f:(fun i enc tracked ->
          let allowed = if i = j then y else tracked in
          if enc - 1 > allowed then
            acc := { from_ckpt = (i, enc - 1); to_ckpt = (j, y); tracked = allowed } :: !acc)
    end
  done;
  (* the offline checkers iterate (j, y, i); match their report order *)
  List.sort
    (fun a b ->
      compare (a.to_ckpt, fst a.from_ckpt) (b.to_ckpt, fst b.from_ckpt))
    !acc

type summary = {
  events : int;
  checkpoints : int;
  rdt : bool;
  first_violation : int option;
  zcycle : bool;
  rebuilds : int;
}

let summary t =
  {
    events = t.seen;
    checkpoints = num_checkpoints t;
    rdt = rdt_so_far t;
    first_violation = t.first_violation;
    zcycle = zcycle t;
    rebuilds = t.rebuilds;
  }

let pp_summary ppf s =
  Format.fprintf ppf "events: %d, checkpoints: %d, rdt: %b%s%s" s.events s.checkpoints s.rdt
    (match s.first_violation with
    | None -> ""
    | Some i -> Printf.sprintf ", first violation at event %d" i)
    (if s.rebuilds > 0 then Printf.sprintf ", rebuilds: %d" s.rebuilds else "")

(* ------------------------------------------------------------------ *)
(* Durable state: export / restore                                     *)
(* ------------------------------------------------------------------ *)

(* The durable image of an engine is its *history*, not its graphs: the
   [History]'s per-process surviving entries plus its message
   routing/abandonment tables, and the three latched scalars.  [restore] then reconstructs
   the incremental R-graph/max-reach/TDV state by running the exact rebuild
   path a rollback uses, so a restored engine is bit-for-bit the state a
   rollback-free replay of the survivors would reach — serializing the
   reach vectors themselves would only create a second, divergeable
   source of truth. *)
module Export = struct
  type t = {
    n : int;
    track_open : bool;
    events_seen : int;
    first_violation : int option;
    rebuilds : int;
    stacks : History.entry list array;
    routes : (int * int * int) list;
    undeliverable : int list;
  }
end

let export t =
  {
    Export.n = t.n;
    track_open = t.track_open;
    events_seen = t.seen;
    first_violation = t.first_violation;
    rebuilds = t.rebuilds;
    stacks = History.stacks t.history;
    routes = History.routes t.history;
    undeliverable = History.undeliverable_msgs t.history;
  }

let restore (e : Export.t) =
  if e.Export.n <= 0 then bad "restore: n must be positive (got %d)" e.Export.n;
  if Array.length e.Export.stacks <> e.Export.n then
    bad "restore: %d survivor stacks for %d processes" (Array.length e.Export.stacks) e.Export.n;
  if e.Export.events_seen < 0 then bad "restore: negative event count %d" e.Export.events_seen;
  let t =
    {
      (create ~track_open:e.Export.track_open ~n:e.Export.n ()) with
      history =
        History.restore ~n:e.Export.n ~stacks:e.Export.stacks ~routes:e.Export.routes
          ~undeliverable:e.Export.undeliverable;
    }
  in
  (* reconstruction is the rollback rebuild; it must not count as one *)
  rebuild t;
  settle t;
  t.seen <- e.Export.events_seen;
  t.first_violation <- e.Export.first_violation;
  t.rebuilds <- e.Export.rebuilds;
  t

(* ------------------------------------------------------------------ *)
(* Whole-pattern and whole-trace convenience drivers                   *)
(* ------------------------------------------------------------------ *)

let feed t events = List.iter (observe t) events

let check_pattern pat =
  let t = create ~track_open:false ~n:(P.n pat) () in
  let messages = P.messages pat in
  P.iter_in_order pat (fun pid _pos ev ->
      match ev with
      | T.Ckpt 0 -> () (* initial checkpoints are taken at creation *)
      | T.Ckpt x -> checkpoint t ~pid ~index:x
      | T.Send id -> send t ~msg:id ~src:pid ~dst:messages.(id).T.dst
      | T.Recv id -> deliver t ~msg:id ~dst:pid
      | T.Internal -> internal t ~pid);
  t

let orphan_error orphans =
  match List.sort_uniq Int.compare orphans with
  | [ msg ] -> Printf.sprintf "surviving delivery of rolled-back send %d" msg
  | msgs ->
      Printf.sprintf "surviving deliveries of rolled-back sends %s"
        (String.concat ", " (List.map string_of_int msgs))

let trace_process_count = Rdt_obs.Replay.process_count

let check_trace events =
  match trace_process_count events with
  | Error _ as e -> e
  | Ok n -> (
      try
        let t = create ~n () in
        feed t events;
        match orphan_messages t with [] -> Ok t | orphans -> Error (orphan_error orphans)
      with Inconsistent e -> Error e)
