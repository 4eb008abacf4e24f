(** Imperative binary min-heap, polymorphic in the element type.

    The ordering is supplied at creation time; elements compare by the
    given [cmp].  Used by {!Event_queue} and by analysis passes that need a
    priority queue. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] is an empty heap ordered by [cmp] (smallest first). *)

val is_empty : 'a t -> bool

val add : 'a t -> 'a -> unit
(** [add h x] inserts [x].  Amortised O(log n). *)

val peek : 'a t -> 'a option
(** [peek h] is the minimum element, without removing it. *)

val pop : 'a t -> 'a option
(** [pop h] removes and returns the minimum element. *)
