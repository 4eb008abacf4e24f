(** Control information piggybacked on application messages.

    Each protocol family piggybacks a different amount of control data:
    nothing (event-pattern protocols), a transitive dependency vector
    (FDI, FDAS), or the vector + [simple] row + [causal] matrix of the
    BHMR family (the Section 5.1 variants send an empty [simple]).  The
    size each protocol is charged for is its own
    {!Protocol.S.payload_bits}.

    A BHMR row of [n] booleans is packed into [words ~n] ints of
    63 bits: bit [k] is bit [k mod 63] of word [k / 63], and the bits
    past [n] stay clear.  [causal] is the [n] rows one after another.

    Payloads are immutable snapshots: the sender copies its state at send
    time, exactly as a real implementation would serialize it. *)

type t =
  | Nothing
  | Tdv of int array
  | Full of { tdv : int array; simple : int array; causal : int array }

val words : n:int -> int

val mem : int array -> at:int -> int -> bool
(** [mem a ~at k]: bit [k] of the row starting at word [at] of [a];
    [set] and [clear] write it. *)

val set : int array -> at:int -> int -> unit
val clear : int array -> at:int -> int -> unit
