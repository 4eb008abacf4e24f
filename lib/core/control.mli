(** Control information piggybacked on application messages.

    Each protocol family piggybacks a different amount of control data:
    nothing (event-pattern protocols), a transitive dependency vector
    (FDI, FDAS), or the vector + [simple] array + [causal] matrix of the
    BHMR family (the Section 5.1 variants send an empty [simple]).  The
    size each protocol is charged for is its own
    {!Protocol.S.payload_bits}.

    Payloads are immutable snapshots: the sender deep-copies its state at
    send time, exactly as a real implementation would serialize it. *)

type t =
  | Nothing
  | Tdv of int array
  | Full of { tdv : int array; simple : bool array; causal : bool array array }

val copy_matrix : bool array array -> bool array array
