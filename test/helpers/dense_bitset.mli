(** The original dense bitmap implementation of [Rdt_pattern.Bitset],
    preserved as the reference model for differential tests of the
    chunked replacement.  Same signature, same observable semantics. *)

type t

val create : int -> t

val capacity : t -> int

val ensure_capacity : t -> int -> unit

val mem : t -> int -> bool

val add : t -> int -> unit

val remove : t -> int -> unit

val union_into : t -> t -> bool

val copy : t -> t

val cardinal : t -> int

val iter : (int -> unit) -> t -> unit

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val to_list : t -> int list

val equal : t -> t -> bool
