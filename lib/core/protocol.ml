module type S = sig
  type state

  val name : string
  val describe : string
  val ensures_rdt : bool
  val ensures_no_useless : bool
  val create : n:int -> pid:int -> state
  val copy : state -> state
  val on_checkpoint : state -> unit
  val make_payload : state -> dst:int -> Control.t
  val force_after_send : bool
  val must_force : state -> src:int -> Control.t -> bool
  val absorb : state -> src:int -> Control.t -> unit
  val tdv : state -> int array option
  val payload_bits : n:int -> int
  val evaluated : int
  val predicates : state -> src:int -> Control.t -> int
end

type t = (module S)

let name (module P : S) = P.name

let describe (module P : S) = P.describe

let ensures_rdt (module P : S) = P.ensures_rdt

let payload_bits (module P : S) ~n = P.payload_bits ~n
