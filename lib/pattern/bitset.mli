(** Fixed-capacity mutable bitsets.

    The online checker's per-node reached-by sets, where set-union over 64
    nodes at a time is the difference between O(V·E) and O(V·E/64), and
    the fresh sets {!Rgraph.reachable_set} returns.  The offline
    {!Rgraph} reachability itself no longer uses them. *)

type t

val create : int -> t
(** [create n] is an empty set over the universe [\[0, n)]. *)

val capacity : t -> int

val ensure_capacity : t -> int -> unit
(** [ensure_capacity t n] grows the universe of [t] to at least
    [\[0, n)], keeping every member.  A no-op when [n <= capacity t];
    never shrinks.  Lets incremental analyses (the online checker) add
    nodes to live reachability sets without rebuilding them. *)

val mem : t -> int -> bool

val add : t -> int -> unit

val remove : t -> int -> unit

val union_into : t -> t -> bool
(** [union_into dst src] adds every element of [src] to [dst]; returns
    [true] iff [dst] changed.  @raise Invalid_argument if [src] has a
    larger capacity than [dst]. *)

val copy : t -> t

val cardinal : t -> int

val iter : (int -> unit) -> t -> unit

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val to_list : t -> int list

val equal : t -> t -> bool
