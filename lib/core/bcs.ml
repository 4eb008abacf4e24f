(* The index-based protocol of Briatico, Ciuffoletti and Simoncini
   ("A distributed domino-effect free recovery algorithm", 1984), included
   as the classic representative of the weaker CIC class the RDT papers
   position themselves against.

   Each process numbers its checkpoints with a logical index [sn],
   piggybacked on every message; a message arriving from a "later" index
   forces a checkpoint first, after which the receiver's index jumps to
   the sender's.  The checkpoints with equal index then line up into
   consistent global checkpoints, so no checkpoint lies on a Z-cycle and
   the domino effect is impossible — but hidden (non-causally doubled)
   dependencies remain: the protocol does NOT ensure RDT, which the test
   suite demonstrates. *)

type state = { pid : int; mutable sn : int }

let name = "bcs"
let describe = "Briatico-Ciuffoletti-Simoncini index-based protocol (no useless checkpoints, no RDT)"
let ensures_rdt = false
let ensures_no_useless = true

let create ~n:_ ~pid = { pid; sn = -1 }

let copy st = { st with sn = st.sn }

let on_checkpoint st = st.sn <- st.sn + 1

let make_payload st ~dst:_ = Control.Tdv [| st.sn |]

let force_after_send = false

let payload_sn = function
  | Control.Tdv [| sn |] -> sn
  | Control.Nothing | Control.Tdv _ | Control.Full _ ->
      invalid_arg "Bcs: unexpected payload"

let must_force st ~src:_ payload = payload_sn payload > st.sn

let absorb st ~src:_ payload =
  let sn = payload_sn payload in
  if sn > st.sn then st.sn <- sn

let tdv _ = None

let payload_bits ~n:_ = 32

let evaluated = 0
let predicates _ ~src:_ _ = 0
