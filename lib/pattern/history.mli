(** The surviving history of a run with rollbacks.

    Recovery truncates each rolled-back process's history to its line
    checkpoint, and later recovery lines (Corollary 4.5's minimum and
    maximum consistent global checkpoints) are computed on the pattern
    that survives.  A history keeps, per process, a stack of
    the events that survive so far, the route of every message sent and
    the set of messages the transport abandoned.  {!rollback} pops a
    process back to a checkpoint; {!to_pattern} turns what survives into a
    finished {!Pattern.t}.

    Every entry carries a global [seq] chosen by the caller: a number
    increasing in emission order, which restores the cross-process
    (causality-consistent) order when the stacks are flattened.  Data
    only some callers need (checkpoint kind, recorded TDV, time) stays
    with them, keyed by [seq].

    The initial checkpoint [C_{i,0}] is implicit: rolling back to index
    0 empties the stack, and {!to_pattern} skips index-0 entries (the
    builder takes the initial checkpoints itself). *)

exception Inconsistent of string
(** The events recorded are not a run: a pid out of range, a delivery
    of an unknown or abandoned message, a rollback to a missing
    checkpoint, a surviving delivery of a rolled-back send. *)

type entry =
  | Send of { seq : int; msg : int }
  | Recv of { seq : int; msg : int }
  | Internal of { seq : int }
  | Ckpt of { seq : int; index : int }

type t

val create : n:int -> t
(** An empty history over processes [0..n-1]. *)

(** {1 Recording}

    Each appends one entry to a process's stack.
    @raise Inconsistent on a pid out of range. *)

val send : t -> seq:int -> msg:int -> src:Types.pid -> dst:Types.pid -> unit
(** Also records the route of [msg]. *)

val recv : t -> seq:int -> msg:int -> dst:Types.pid -> unit
(** @raise Inconsistent if [msg] was never sent or was abandoned. *)

val internal : t -> seq:int -> pid:Types.pid -> unit

val checkpoint : t -> seq:int -> pid:Types.pid -> index:int -> unit

val undeliverable : t -> msg:int -> unit
(** The transport abandoned [msg]: its send leaves the pattern. *)

val rollback : t -> pid:Types.pid -> to_index:int -> entry list
(** Pop [pid]'s entries after checkpoint [to_index], which survives, and
    return them oldest first.
    @raise Inconsistent if the checkpoint is not on the stack. *)

(** {1 Reading} *)

val is_undeliverable : t -> int -> bool

val iter : t -> (Types.pid -> entry -> unit) -> unit
(** Every surviving entry with its process, in [seq] order. *)

val to_pattern :
  checkpoint:(int -> Types.ckpt_kind * int array option * int) -> t -> Pattern.t
(** The surviving pattern, built in [seq] order with final checkpoints.
    Sends of abandoned messages and index-0 checkpoints are skipped;
    [checkpoint seq] gives the kind, TDV and time of every other
    checkpoint.
    @raise Inconsistent on a surviving delivery of a rolled-back send or
    a send with no route.
    @raise Invalid_argument when {!Pattern.Builder} rejects the result
    (a message still in flight). *)

(** {1 Durable image} *)

val stacks : t -> entry list array
(** Per process, oldest first. *)

val routes : t -> (int * int * int) list
(** [(msg, src, dst)] for every message sent, sorted by [msg]. *)

val stack_newest_first : t -> Types.pid -> entry list
(** The process's surviving entries, newest first: the stack itself, no
    copy.  A push conses onto it and {!rollback} keeps a physical suffix
    of it, so an earlier result still physically in the current one
    ([==] on some tail) is unchanged below that point. *)

val routes_arrived : t -> int
(** Route records so far: one per {!send}, plus one per route given to
    {!restore}. *)

val iter_routes_from : t -> from:int -> (int -> int -> int -> unit) -> unit
(** [f msg src dst] for route records [from], [from + 1], ... in arrival
    order.  A resent message id appears once per send; {!routes} keeps
    the last. *)

val undeliverable_msgs : t -> int list
(** Abandoned message ids, sorted. *)

val restore :
  n:int ->
  stacks:entry list array ->
  routes:(int * int * int) list ->
  undeliverable:int list ->
  t
(** The history with these parts; inverse of the three readers above. *)
