(** Online crash-and-recovery simulation.

    The {!Rdt_core.Runtime} analyses failures offline, on the finished
    pattern; this runtime injects fail-stop crashes {e during} the run and
    executes a full checkpoint-based recovery:

    + at the crash instant the process stops: its volatile state (every
      event after its last checkpoint) is lost, its timers stop, and
      messages addressed to it are buffered by the (reliable) channels;
    + at repair time the system performs a synchronous recovery, as in
      Koo-Toueg-style rollback: every live process first secures its
      current state as a recovery checkpoint, the {e recovery line} — the
      maximum consistent global checkpoint under the crashed process's
      last durable checkpoint — is computed, and every process rolls back
      to its line checkpoint, restoring the {e protocol state} saved with
      it (each checkpoint carries a deep copy of the CIC protocol state,
      so dependency tracking resumes exactly where the checkpoint left
      it);
    + rolled-back sends are undone: their messages are discarded from the
      channels (dead messages never reach the application);
    + messages sent before the line whose deliveries were rolled back are
      {e replayed} from the sender-side log, re-entering the channels at
      repair time;
    + execution then continues — the application takes a different but
      consistent path (fail-stop recovery guarantees consistency, not
      deterministic re-execution).

    The result is the pattern of the {e surviving} execution (undone
    events do not appear), which for an RDT protocol must again satisfy
    RDT — the strongest end-to-end test of the protocol implementations,
    exercised by the test suite across crash plans, protocols and
    environments. *)

type crash = {
  victim : int;  (** process that fails *)
  at : int;  (** simulated crash time *)
  repair_delay : int;  (** downtime before the synchronous recovery *)
}

type config = {
  n : int;
  seed : int;
  env : Rdt_dist.Env.t;
  protocol : Rdt_core.Protocol.t;
  channel : Rdt_dist.Channel.spec;
  basic_period : int * int;
  max_messages : int;
  max_time : int;
  crashes : crash list;
  faults : Rdt_dist.Faults.spec;
      (** network faults under the crashes; requires [transport <> None]
          unless {!Rdt_dist.Faults.none} *)
  transport : Rdt_dist.Transport.params option;
      (** [None] (the default) keeps the reliable channels; [Some params]
          sends every message through a per-message stop-and-wait reliable
          transport over the faulty network (retransmission with the same
          backoff/jitter/[max_retx] policy as {!Rdt_dist.Transport} — the
          sliding-window link itself is not reused because rollback undoes
          sends and replays deliveries, which a fixed sequence history
          cannot express).  Crashes compose with the network: packets to a
          crashed process are lost and recovered by retransmission, a
          crashed sender's timers die with its volatile state and are
          re-armed at recovery, and a message still unacknowledged after
          [max_retx] retries is abandoned — it appears in neither the
          surviving pattern nor the delivered count, and is tallied in
          [metrics.undeliverable]. *)
  trace : Rdt_obs.Trace.t;
      (** structured event trace ({!Rdt_obs.Trace.null} by default).  On
          top of the {!Rdt_core.Runtime} events it records rollbacks
          (one per process actually truncated at a recovery) and message
          replays, so {!Rdt_obs.Replay.rebuild} reproduces the surviving
          pattern. *)
}

val default_config : Rdt_dist.Env.t -> Rdt_core.Protocol.t -> config
(** Same defaults as {!Rdt_core.Runtime.default_config}, no crashes, no
    faults, no transport. *)

val configure :
  ?n:int ->
  ?seed:int ->
  ?messages:int ->
  ?channel:Rdt_dist.Channel.spec ->
  ?basic_period:int * int ->
  ?max_time:int ->
  ?crashes:crash list ->
  ?faults:Rdt_dist.Faults.spec ->
  ?transport:Rdt_dist.Transport.params ->
  ?trace:Rdt_obs.Trace.t ->
  Rdt_dist.Env.t ->
  Rdt_core.Protocol.t ->
  config
(** Labelled constructor over {!default_config}, mirroring
    {!Rdt_core.Runtime.configure}: every optional argument defaults to
    the corresponding default field. *)

type recovery = {
  crash : crash;
  line : int array;  (** the recovery line rolled back to *)
  events_undone : int;
  checkpoints_undone : int;
  messages_undone : int;  (** sends discarded (dead messages) *)
  messages_replayed : int;  (** deliveries re-injected from the log *)
}

type metrics = {
  messages_delivered : int;  (** surviving deliveries in the final pattern *)
  basic : int;  (** basic checkpoints taken, including those a rollback later undid *)
  forced : int;
      (** forced checkpoints taken, including the recovery checkpoints and
          those a rollback later undid *)
  duration : int;
  total_events_undone : int;
  total_messages_replayed : int;
  retransmissions : int;  (** data transmissions beyond each message's first *)
  packets_dropped : int;
      (** copies lost to drop sampling, partitions, or a crashed host *)
  undeliverable : int;  (** messages abandoned after [max_retx] retries *)
}

type result = {
  pattern : Rdt_pattern.Pattern.t;  (** the surviving execution *)
  recoveries : recovery list;  (** in occurrence order *)
  metrics : metrics;
}

val run : config -> result
(** @raise Invalid_argument on malformed configurations (bad pids,
    crashes out of order on the same process, non-positive repair
    delays). *)
