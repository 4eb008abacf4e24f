(* No-Receive-After-Send (Russell [10]): within a checkpoint interval all
   deliveries precede all sends.  A delivery arriving after a send in the
   current interval forces a checkpoint, so a send event is never followed
   by a delivery in the same interval and no non-causal junction can form
   at this process. *)

type state = { mutable sent : bool }

let name = "nras"
let describe = "no receive after send within an interval"
let ensures_rdt = true
let ensures_no_useless = true

let create ~n:_ ~pid:_ = { sent = false }

let copy st = { sent = st.sent }

let on_checkpoint st = st.sent <- false

let make_payload st ~dst:_ =
  st.sent <- true;
  Control.Nothing

let force_after_send = false

let must_force st ~src:_ _ = st.sent

let absorb _ ~src:_ _ = ()

let tdv _ = None

let payload_bits ~n:_ = 0

let evaluated = 0
let predicates _ ~src:_ _ = 0
