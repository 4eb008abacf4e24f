(** Vector clocks over a fixed set of [n] processes.

    The transitive dependency vectors of the RDT protocols are vector clocks
    whose local entry counts checkpoint intervals instead of events; this
    module provides the join ({!merge}) both uses share. *)

type t
(** A vector of [n] non-negative counters.  Mutable. *)

val create : n:int -> t
(** All entries zero. *)

val of_sorted : n:int -> int array -> int array -> t
(** [of_sorted ~n idx vals] has entry [vals.(k)] at position [idx.(k)]
    and zero elsewhere.  It takes both arrays over, without a copy.
    @raise Invalid_argument unless the arrays have one length, [idx] is
    strictly ascending within [0 .. n-1], and every [vals.(k) > 0]. *)

val to_array : t -> int array
(** A fresh copy of the entries. *)

val copy : t -> t

val nnz : t -> int
(** Number of nonzero entries actually stored.  The sparse representation
    costs O(nnz) words regardless of {!size} — the scaled engine's
    per-message payload budget is [nnz], not [n]. *)

val iteri : f:(int -> int -> unit) -> t -> unit
(** [iteri ~f v] calls [f i x] for every {e nonzero} entry [x] at
    position [i], in ascending position order. *)

val get : t -> int -> int

val set : t -> int -> int -> unit

val merge : t -> t -> unit
(** [merge v w] sets [v] to the component-wise maximum of [v] and [w]. *)

val join : t -> t -> f:(int -> int -> unit) -> unit
(** [join v w ~f] is {!merge} that also calls [f i x] for every entry
    [i] it raises, with the new value [x], in no promised order.  [f]
    runs while the join is under way: it must not read or write [v].
    One linear pass to size the result and one to merge:
    O(nnz v + nnz w); one elementwise pass when both are full
    ([nnz = n]). *)

val iter2 : f:(int -> int -> int -> unit) -> t -> t -> unit
(** [iter2 ~f a b] calls [f i x y] for every {e nonzero} entry [x] of
    [a] at position [i], where [y] is entry [i] of [b], in ascending
    position order.  One paired pass: O(nnz a + nnz b). *)
