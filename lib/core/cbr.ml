(* Checkpoint-Before-Receive (after Russell [10]): a message is only ever
   delivered into a fresh checkpoint interval.  Every delivery that would
   land in an interval already containing a send or a delivery forces a
   checkpoint first, so no event precedes a delivery within its interval
   and every message chain is causal — RDT holds trivially, at the price
   of (almost) one forced checkpoint per delivery. *)

type state = { mutable active : bool (* any send/delivery since last checkpoint *) }

let name = "cbr"
let describe = "checkpoint before every receive (fresh interval per delivery)"
let ensures_rdt = true
let ensures_no_useless = true

let create ~n:_ ~pid:_ = { active = false }

let copy st = { active = st.active }

let on_checkpoint st = st.active <- false

let make_payload st ~dst:_ =
  st.active <- true;
  Control.Nothing

let force_after_send = false

let must_force st ~src:_ _ = st.active

let absorb st ~src:_ _ = st.active <- true

let tdv _ = None

let payload_bits ~n:_ = 0

let evaluated = 0
let predicates _ ~src:_ _ = 0
