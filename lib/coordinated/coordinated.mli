(** Coordinated checkpointing: the synchronised baselines the paper's
    introduction contrasts communication-induced checkpointing against
    ("the coordination is achieved at the price of synchronization by
    means of additional control messages").  Two algorithms run on one
    event loop, one send budget and one round bookkeeping, over the CIC
    runtime's default channel: every message, application or control,
    takes a uniform delay in [\[5; 100\]].

    {b Chandy-Lamport} [3] distributed snapshots.  A designated initiator
    periodically starts a snapshot: it records its local state and sends
    a {e marker} on every outgoing channel; a process receiving its first
    marker of that snapshot records its state and floods markers in turn;
    afterwards, the messages arriving on a channel before that channel's
    marker are recorded as the channel's state.  Chandy-Lamport requires
    FIFO channels, so under it this runtime (unlike the CIC one) delivers
    the messages of each ordered channel in send order.  Every round
    checkpoints all [n] processes; the recorded channel states are
    exactly the in-transit messages of the cut.

    {b Koo-Toueg} [6] two-phase blocking checkpointing, which checkpoints
    only the processes the initiator transitively depends on:

    + the initiator takes a tentative checkpoint and sends a request to
      every process it has received messages from since its last
      checkpoint (its {e cohort} — exactly the senders whose messages
      would become orphans);
    + a requested process takes its own tentative checkpoint, propagates
      requests to its own cohort, and answers its requester once its
      subtree has answered;
    + from tentative checkpoint to commit, a participant {e defers its
      application sends} (this is what keeps the cut consistent: a
      message sent after a tentative checkpoint can never be delivered
      before another participant's);
    + when the initiator's cohort has answered, a commit wave makes the
      tentative checkpoints permanent and releases the deferred sends.

    Under both, every completed round yields a cut that is consistent
    {e by construction} (cross-checked in the test suite against
    {!Rdt_pattern.Consistency} and the message-logging analysis).  The
    price is visible in the metrics: control messages (markers, or
    requests, replies and commits) and round latency, against the CIC
    protocols' zero control messages and piggybacked data. *)

type algo = Chandy_lamport | Koo_toueg

type config = {
  algo : algo;
  n : int;
  seed : int;
  env : Rdt_dist.Env.t;
  initiation_period : int;
      (** simulated-time delay between the completion of a round and the
          initiation of the next *)
  max_messages : int;  (** application-message budget *)
  max_time : int;
}

val default_config : algo -> Rdt_dist.Env.t -> config

type round = {
  id : int;
  initiated_at : int;
  completed_at : int;
  participants : int list;  (** processes that took a checkpoint, in order *)
  cut : int array;  (** per process: checkpoint index of the round's cut *)
  channel_state : int list;
      (** Chandy-Lamport: application message ids recorded as in transit
          across the cut; empty under Koo-Toueg *)
  control_messages : int;
  deferred_sends : int;  (** Koo-Toueg: sends held back; 0 under Chandy-Lamport *)
}

type metrics = {
  app_messages : int;
  control_messages : int;
  rounds_completed : int;
  checkpoints_taken : int;
  mean_participants : float;
  mean_latency : float;  (** mean completion time of a round *)
}

type result = {
  pattern : Rdt_pattern.Pattern.t;
  rounds : round list;  (** in completion order *)
  metrics : metrics;
}

val run : config -> result
(** Runs the environment to its message budget while taking periodic
    coordinated checkpoints.  Deterministic in the configuration.
    @raise Invalid_argument on nonsensical configurations. *)

val markers_per_snapshot : n:int -> int
(** The marker cost of one Chandy-Lamport snapshot: [n * (n - 1)]. *)
