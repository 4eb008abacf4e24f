(** Vector clocks over a fixed set of [n] processes.

    The transitive dependency vectors of the RDT protocols are vector clocks
    whose local entry counts checkpoint intervals instead of events; this
    module provides the join ({!merge}) both uses share. *)

type t
(** A vector of [n] non-negative counters.  Mutable. *)

val create : n:int -> t
(** All entries zero. *)

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
