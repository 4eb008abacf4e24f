(* Baseline that never forces a checkpoint and piggybacks nothing: the
   uncoordinated ("independent") checkpointing the paper's introduction
   warns about.  Runs under it generally violate RDT and can exhibit the
   domino effect; the test suite uses it as the negative control. *)

type state = unit

let name = "none"
let describe = "independent checkpointing: no forced checkpoints, no piggybacking"
let ensures_rdt = false
let ensures_no_useless = false
let create ~n:_ ~pid:_ = ()

let copy () = ()
let on_checkpoint () = ()
let make_payload () ~dst:_ = Control.Nothing
let force_after_send = false
let must_force () ~src:_ _ = false
let absorb () ~src:_ _ = ()
let tdv () = None
let payload_bits ~n:_ = 0
let evaluated = 0
let predicates () ~src:_ _ = 0
