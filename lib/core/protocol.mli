(** The communication-induced checkpointing (CIC) protocol interface.

    A protocol is a per-process state machine driven by the runtime at
    three points: when the process takes a local checkpoint (basic or
    forced), when it sends an application message (the protocol supplies
    the piggybacked control data), and when a message arrives (the
    protocol decides whether a forced checkpoint must be taken {e before}
    delivery, then merges the piggybacked knowledge).

    The contract every implementation claiming RDT must honour: whatever
    basic-checkpoint schedule and communication pattern the application
    produces, the resulting checkpoint and communication pattern satisfies
    the Rollback-Dependency Trackability property (verified offline by
    {!Checker}). *)

module type S = sig
  type state

  val name : string
  (** Short identifier used by the CLI, benches, and registries. *)

  val describe : string
  (** One-line description. *)

  val ensures_rdt : bool
  (** Whether the protocol guarantees the RDT property. *)

  val ensures_no_useless : bool
  (** Whether the protocol guarantees that no checkpoint is useless (on a
      Z-cycle).  Implied by RDT; also provided by weaker index-based
      protocols such as [bcs] that do not ensure RDT. *)

  val create : n:int -> pid:int -> state
  (** Fresh state for process [pid] of [n].  The caller must immediately
      account for the initial checkpoint by calling {!on_checkpoint}. *)

  val copy : state -> state
  (** A deep, independent copy.  Saved with every checkpoint by the
      crash-recovery runtime, so a rollback can restore the protocol
      state exactly as it was when the checkpoint was taken. *)

  val on_checkpoint : state -> unit
  (** The process takes a local checkpoint (initial, basic or forced). *)

  val make_payload : state -> dst:int -> Control.t
  (** Called at each send; returns the control data to piggyback (a
      copy, safe against later state mutation: for BHMR, three flat
      arrays in the packed layout of {!Control}) and records the send in
      the state (e.g. [sent_to]). *)

  val force_after_send : bool
  (** [true] for checkpoint-after-send style protocols: the runtime takes
      a forced checkpoint immediately after each send event. *)

  val must_force : state -> src:int -> Control.t -> bool
  (** Evaluated when a message arrives, before delivery, on the
      un-modified state: must the process take a forced checkpoint first?
      Must not mutate the state. *)

  val absorb : state -> src:int -> Control.t -> unit
  (** Merge the piggybacked control data into the state (performed after
      the possible forced checkpoint, before delivery to the
      application). *)

  val tdv : state -> int array option
  (** Current transitive dependency vector, if the protocol maintains one
      (a copy).  Entry [pid] is the index of the current interval; the
      vector recorded just before a checkpoint [C_{i,x}] is [TDV_{i,x}],
      whose entries name the minimum consistent global checkpoint
      containing [C_{i,x}] (Corollary 4.5). *)

  val payload_bits : n:int -> int
  (** Piggyback size in bits for a system of [n] processes.  BHMR's
      packed payload holds its boolean part in whole 63-bit words. *)

  val evaluated : int
  (** The {!Predicates} mask of the predicates {!predicates} evaluates;
      [0] for protocols that do not track dependency vectors. *)

  val predicates : state -> src:int -> Control.t -> int
  (** The {!Predicates} mask of the evaluated predicates that hold at an
      arriving message, for validation of the generality hierarchy.  A
      predicate outside {!evaluated} is never set.  Must not mutate the
      state. *)
end

type t = (module S)

val name : t -> string

val describe : t -> string

val ensures_rdt : t -> bool

val payload_bits : t -> n:int -> int
