(** Rollback recovery: recovery lines and the domino effect.

    After failures, every process must restart from a local checkpoint so
    that the resulting global checkpoint is consistent.  A failed process
    can restart at best from its last checkpoint on stable storage; the
    {e recovery line} is the {e maximum} consistent global checkpoint at
    or below those per-process bounds — maximising it minimises lost
    work.

    Without coordination the recovery line can cascade arbitrarily far
    back (the domino effect [9]); under RDT the dependencies that force
    rollback are exactly the ones the dependency vectors track, so the
    line is found in one monotone pass and never regresses past the
    minimum consistent global checkpoint of the surviving states. *)

type crash = {
  pid : Rdt_pattern.Types.pid;
  available : int;
      (** index of the last checkpoint of [pid] that survived the crash *)
}

type outcome = {
  line : int array;  (** the recovery line, one checkpoint index per process *)
  rolled_back_ckpts : int array;
      (** per process, how many of its checkpoints the rollback
          discards *)
  lost_events : int array;
      (** per process, how many of its events are undone (those after the
          recovery-line checkpoint) *)
  domino_depth : int;
      (** maximum number of checkpoints a {e surviving} process must
          discard — 0 means failures never cascade *)
}

val max_consistent_bounded : Rdt_pattern.Pattern.t -> int array -> int array
(** [max_consistent_bounded p bounds] is the maximum consistent global
    checkpoint [v] with [v.(i) <= bounds.(i)] for all [i]
    ({!Rdt_pattern.Consistency.max_consistent_below}).  Always exists
    (the initial global checkpoint is consistent).
    @raise Invalid_argument on a malformed bounds vector. *)

val crash_at : Rdt_pattern.Pattern.t -> Rdt_pattern.Types.pid -> time:int -> crash
(** [crash_at p pid ~time] is [pid] crashing at [time]: the checkpoint
    available to it is its last non-[Final] one taken at or before
    [time] (the initial checkpoint at worst). *)

val recover : Rdt_pattern.Pattern.t -> crash list -> outcome
(** Computes the recovery line when the given processes crash (surviving
    processes are bounded by their last checkpoint).
    @raise Invalid_argument on out-of-range crashes or duplicated pids. *)

val pp_outcome : Format.formatter -> outcome -> unit
