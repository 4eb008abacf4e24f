(* Checkpoint-After-Send (Wu & Fuchs [12]): every send event is
   immediately followed by a checkpoint, so a send is always the last
   event of its interval and no delivery can follow a send within an
   interval — again every message chain is causal.  Otherwise the
   negative control: no forcing on arrival, nothing piggybacked. *)

include No_cic

let name = "cas"
let describe = "checkpoint immediately after every send"
let ensures_rdt = true
let ensures_no_useless = true
let force_after_send = true
