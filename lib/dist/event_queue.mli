(** Deterministic discrete-event queue.

    Events are ordered by integer simulated time; ties break on a strictly
    increasing insertion sequence number, so two runs that enqueue the same
    events in the same order pop them in the same order — a prerequisite for
    reproducible simulations.

    Representation: a binary min-heap keyed by the int pair (time, seq),
    stored with each entry's payload slot in one unboxed [int array], beside
    an array of payload slots.  Reordering the heap moves ints only; each
    payload is written into a free slot once, at {!schedule}, and read and
    cleared once, at {!pop}.  Both arrays double when full and never
    shrink.  Neither is seeded with a payload, so growing past 256 entries
    forces no minor collection. *)

type 'a t

val create : unit -> 'a t

val schedule : 'a t -> time:int -> 'a -> unit
(** [schedule q ~time ev] enqueues [ev] at absolute simulated [time].
    Amortised O(log n).
    @raise Invalid_argument if [time] is negative. *)

val pop : 'a t -> (int * 'a) option
(** [pop q] removes the earliest event, returning [(time, event)].
    O(log n). *)

val peek_time : 'a t -> int option
(** Time of the next event, if any. *)

val is_empty : 'a t -> bool
