(** Checkpoint and communication patterns ([(H, C_H)] in the paper).

    A pattern is the complete record of a finished distributed computation:
    the per-process event sequences (sends, deliveries, checkpoints,
    internal events), the set of local checkpoints, and the messages with
    their send/delivery intervals.  Patterns are immutable once built; they
    are produced either by the simulation runtime or by hand through
    {!Builder} (used extensively in tests, e.g. to encode Figure 1 of the
    paper).

    A {e global sequence number} is attached to every event: a total order
    consistent with causality (deliveries always after the matching send).
    Offline analyses (transitive-dependency-vector replay, causal chains)
    process events in that order. *)

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

  val send : ?time:int -> b -> src:Types.pid -> dst:Types.pid -> int
  (** [send b ~src ~dst] records a send event and returns a message handle
      to pass to {!recv}.  @raise Invalid_argument if [src = dst] or a pid
      is out of range. *)

  val recv : ?time:int -> b -> int -> unit
  (** [recv b h] records the delivery of message [h] at its destination.
      @raise Invalid_argument if [h] was already delivered or unknown. *)

  val internal : ?time:int -> b -> Types.pid -> unit
  (** A purely local event (does not affect dependencies; kept so traces
      are faithful). *)

  val finish : ?final_checkpoints:bool -> b -> t
  (** Freezes the pattern.  When [final_checkpoints] (default [true]), a
      [Final] checkpoint is appended to every process whose last event is
      not already a checkpoint, so every event lies in a complete interval.
      @raise Invalid_argument if some message was never delivered. *)
end

(** {1 Comparison} *)

val equal : t -> t -> bool
(** Structural equality: same processes, event sequences, global
    sequence numbers, checkpoints (including kinds and recorded TDVs)
    and messages.  Use this — never polymorphic [=] — to compare
    patterns: [t] carries an internal lazily built cache that polymorphic
    equality can see, so [=] may answer [false] on structurally equal
    patterns depending on which accessors were called first. *)

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

val events_in_gseq_order : t -> (Types.pid * int * Types.event) array
(** All events of all processes as [(pid, pos, event)], sorted by global
    sequence number.  Computed once and cached. *)

val validate : t -> (unit, string) result
(** Structural sanity check: positions consistent, intervals correct,
    deliveries after sends in the global order, checkpoint indices dense. *)

val pp_summary : Format.formatter -> t -> unit
(** One-line summary: processes, events, messages, checkpoints by kind. *)
