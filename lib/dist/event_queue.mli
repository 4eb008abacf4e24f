(** Deterministic discrete-event queue.

    Events are ordered by integer simulated time; ties break on a strictly
    increasing insertion sequence number, so two runs that enqueue the same
    events in the same order pop them in the same order — a prerequisite for
    reproducible simulations. *)

type 'a t

val create : unit -> 'a t

val schedule : 'a t -> time:int -> 'a -> unit
(** [schedule q ~time ev] enqueues [ev] at absolute simulated [time].
    @raise Invalid_argument if [time] is negative. *)

val pop : 'a t -> (int * 'a) option
(** [pop q] removes the earliest event, returning [(time, event)]. *)

val peek_time : 'a t -> int option
(** Time of the next event, if any. *)

val is_empty : 'a t -> bool
