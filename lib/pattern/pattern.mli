(** Checkpoint and communication patterns ([(H, C_H)] in the paper).

    A pattern is the complete record of a finished distributed computation:
    the per-process event sequences (sends, deliveries, checkpoints,
    internal events), the set of local checkpoints, and the messages with
    their send/delivery intervals.  Patterns are immutable once built; they
    are produced either by the simulation runtime or by hand through
    {!Builder} (used extensively in tests, e.g. to encode Figure 1 of the
    paper).

    Every event has a {e global sequence number}, its rank in the order
    the builder was given the events: a total order consistent with
    causality (deliveries after their send).  It is stored nowhere:
    {!iter_in_order} walks the events in it (TDV replay, rendering). *)

type t

(** {1 Building patterns} *)

module Builder : sig
  type b

  val create : n:int -> b
  (** A builder over processes [0 .. n-1].  The initial checkpoints
      [C_{i,0}] are taken automatically. *)

  val checkpoint : ?kind:Types.ckpt_kind -> ?tdv:int array -> ?time:int -> b -> Types.pid -> int
  (** [checkpoint b i] records that process [i] takes its next local
      checkpoint now; returns its index.  [kind] defaults to [Basic]. *)

  val send : b -> src:Types.pid -> dst:Types.pid -> int
  (** [send b ~src ~dst] records a send event and returns a message handle
      to pass to {!recv}.  @raise Invalid_argument if [src = dst] or a pid
      is out of range. *)

  val recv : b -> int -> unit
  (** [recv b h] records the delivery of message [h] at its destination.
      @raise Invalid_argument if [h] was already delivered or unknown. *)

  val internal : b -> Types.pid -> unit
  (** A purely local event (does not affect dependencies; kept so traces
      are faithful). *)

  val finish : b -> t
  (** Freezes the pattern.  A [Final] checkpoint is appended to every
      process whose last event is not already a checkpoint, so every
      event lies in a complete interval.
      @raise Invalid_argument if some message was never delivered. *)
end

(** {1 Comparison} *)

val equal : t -> t -> bool
(** Structural equality: same processes, event sequences, global
    order, checkpoints (including kinds and recorded TDVs) and messages.
    Use this — never polymorphic [=] — to compare patterns (rdtlint's D2
    rule enforces it). *)

(** {1 Accessors} *)

val n : t -> int
(** Number of processes. *)

val events : t -> Types.pid -> Types.event array
(** The event sequence of a process (do not mutate). *)

val checkpoints : t -> Types.pid -> Types.ckpt array
(** The checkpoints of a process, by index; at least [C_{i,0}]. *)

val last_index : t -> Types.pid -> int
(** Index of the last checkpoint of the process. *)

val ckpt : t -> Types.ckpt_id -> Types.ckpt
(** @raise Invalid_argument if the checkpoint does not exist. *)

val has_ckpt : t -> Types.ckpt_id -> bool

val check_line : t -> int array -> length:string -> missing:(int -> int -> string) -> unit
(** [check_line t v ~length ~missing] checks that [v] names one
    checkpoint per process: entry [i] a checkpoint index of [P_i].
    @raise Invalid_argument [length] if [v] does not have [n t] entries,
    or [missing i x] at the first entry [x] that is not such an index.
    Callers pass their own message text. *)

val messages : t -> Types.message array
(** All messages, indexed by message id (do not mutate). *)

val message : t -> int -> Types.message

val num_messages : t -> int

val num_checkpoints : t -> int
(** Total over all processes. *)

val sends_of : t -> Types.pid -> int array
(** Message ids sent by the process, in increasing send position. *)

val sends_between : t -> Types.pid -> lo:int -> hi:int -> int list
(** Message ids sent by the process at positions [p] with [lo < p < hi]. *)

val iter_ckpts : t -> (Types.ckpt -> unit) -> unit

val fold_ckpts : t -> init:'a -> f:('a -> Types.ckpt -> 'a) -> 'a

val iter_in_order : t -> (Types.pid -> int -> Types.event -> unit) -> unit
(** [iter_in_order t f] calls [f pid pos event] on every event of every
    process in global sequence order: the [k]-th call has gseq [k].  The
    builder logs the pid of each event as it arrives, so this is one walk
    of that log with a cursor per process. *)

val validate : t -> (unit, string) result
(** Structural sanity check: positions consistent, intervals correct,
    deliveries after sends in the global order, checkpoint indices dense. *)

val pp_summary : Format.formatter -> t -> unit
(** One-line summary: processes, events, messages, checkpoints by kind. *)
