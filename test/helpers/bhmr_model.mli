(** The BHMR protocol family (Figure 6 and the Section 5.1 variants) over
    plain [bool] rows and a [bool array array] [causal] matrix, with the
    predicates as named booleans: a slow, obviously faithful model of
    {!Rdt_core.Bhmr}, whose packed state must unpack to this one's after
    every step. *)

type variant = Rdt_core.Bhmr.variant = Full | V1 | V2

type payload = { m_tdv : int array; m_simple : bool array; m_causal : bool array array }

type state = {
  variant : variant;
  n : int;
  pid : int;
  tdv : int array;
  sent_to : bool array;
  simple : bool array;  (** [[||]] unless [Full] *)
  causal : bool array array;
}

val create : variant -> n:int -> pid:int -> state
val on_checkpoint : state -> unit
val make_payload : state -> dst:int -> payload
val must_force : state -> payload -> bool
val absorb : state -> src:int -> payload -> unit

val predicates : state -> payload -> (string * bool) list
(** Every predicate the variant evaluates, by name, in catalogue order. *)
