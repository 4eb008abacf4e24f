(** The original dense bitmap implementation of [Rdt_pattern.Bitset],
    preserved as the reference model for differential tests of the
    chunked replacement.  Same signature, same observable semantics. *)

type t

val create : int -> t

val capacity : t -> int

val ensure_capacity : t -> int -> unit

val mem : t -> int -> bool

val add : t -> int -> unit

val union_into : t -> t -> bool

val to_list : t -> int list
