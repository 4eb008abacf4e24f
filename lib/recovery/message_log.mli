(** Message logging on top of checkpointing.

    Rolling a system back to a recovery line [L] leaves two classes of
    problematic messages (Elnozahy-Johnson-Wang's survey [5] vocabulary):

    - {e orphans}: sent after [L] but delivered before [L] — these make a
      line inconsistent, and a consistent line has none;
    - {e in-transit} messages: sent before [L] but delivered after [L] —
      after rollback their sends are in the past and their deliveries in
      the undone future, so they must be {e replayed from a log} (or the
      computation deadlocks waiting for them).

    This module computes both sets and the replay cost of a crash — the
    quantities a sender-based logging layer needs.  Combined with RDT
    (the paper's Section 1 remark and [4]), logging in-transit messages
    makes non-deterministic computations recoverable as if piecewise
    deterministic. *)

val orphans : Rdt_pattern.Pattern.t -> line:int array -> int list
(** Message ids sent strictly after the line's checkpoint at their sender
    and delivered before (or at) the line's checkpoint at their receiver.
    Empty iff the line is consistent.
    @raise Invalid_argument on a malformed line. *)

val in_transit : Rdt_pattern.Pattern.t -> line:int array -> int list
(** Message ids crossing the line forward: sent before it, delivered
    after it.  These are the messages a logging layer must replay when
    the system restarts from [line]. *)

type replay_cost = {
  replayed_messages : int;  (** in-transit messages to re-inject *)
  reexecuted_events : int;
      (** events between the recovery line and the pre-crash state, summed
          over processes — the computation to redo *)
}

val replay_cost :
  Rdt_pattern.Pattern.t -> crash:Recovery_line.crash list -> replay_cost
(** Cost of recovering from the given crashes via
    {!Recovery_line.recover} plus message replay. *)
