(** The simulation runtime: runs an application environment under a CIC
    protocol over the asynchronous-message substrate, and produces the
    resulting checkpoint and communication pattern plus run metrics.

    The model is the paper's: [n] sequential fail-stop processes, every
    ordered pair connected by a reliable asynchronous channel with
    unpredictable-but-finite delays.  Determinism: all randomness comes
    from a single seed, time is integer, and event-queue ties break on
    insertion order, so a run is a pure function of its configuration.

    Sequencing at a message arrival (statement S2 of Figure 6):
    + the protocol evaluates its forced-checkpoint predicate on the
      pre-delivery state;
    + if it fires, a [Forced] checkpoint is taken;
    + the piggybacked control information is merged;
    + the message is delivered to the application, whose reaction (e.g. a
      server forwarding a request) may send further messages.

    Basic checkpoints are scheduled per process with independently drawn
    periods; a scheduled basic checkpoint is skipped when the current
    interval is still empty (taking two checkpoints in a row would only
    inflate indices). *)

type crash = {
  victim : int;  (** process that fails *)
  at : int;  (** simulated crash time *)
  repair_delay : int;  (** downtime before the synchronous recovery *)
}
(** A fail-stop crash injected {e during} the run, followed by a full
    checkpoint-based recovery:

    + at the crash instant the process stops: its volatile state (every
      event after its last checkpoint) is lost, its timers stop, and
      messages addressed to it are buffered by the (reliable) channels;
    + at repair time the system performs a synchronous recovery, as in
      Koo-Toueg-style rollback: every live process first secures its
      current state as a recovery checkpoint, the {e recovery line} — the
      maximum consistent global checkpoint under the crashed process's
      last durable checkpoint — is computed, and every process rolls back
      to its line checkpoint ({!Rdt_pattern.History.rollback} on the
      run's surviving history), restoring the {e protocol state} saved
      with it (when crashes are planned each checkpoint carries a deep
      copy of the CIC protocol state, so dependency tracking resumes
      exactly where the checkpoint left it);
    + rolled-back sends are undone: their messages are discarded from the
      channels (dead messages never reach the application);
    + messages sent before the line whose deliveries were rolled back are
      {e replayed} from the sender-side log, re-entering the channels at
      repair time;
    + execution then continues — the application takes a different but
      consistent path (fail-stop recovery guarantees consistency, not
      deterministic re-execution).

    The result is the pattern of the {e surviving} execution (undone
    events do not appear; {!Rdt_pattern.History.to_pattern}), which for
    an RDT protocol must again satisfy
    RDT — the strongest end-to-end test of the protocol implementations,
    exercised by the test suite across crash plans, protocols and
    environments. *)

type config = {
  n : int;  (** number of processes (>= 2) *)
  seed : int;
  env : Rdt_dist.Env.t;
  protocol : Protocol.t;
  channel : Rdt_dist.Channel.spec;
  basic_period : int * int;
      (** each basic-checkpoint delay is drawn uniformly in this inclusive
          range; [(0, 0)] disables basic checkpoints *)
  max_messages : int;  (** budget of application messages *)
  max_time : int;  (** spontaneous activity stops after this time *)
  crashes : crash list;
      (** crashes to inject, each recovered online; [[]] by default *)
  faults : Rdt_dist.Faults.spec;
      (** network faults injected below the transport; requires
          [transport <> None] unless {!Rdt_dist.Faults.none} *)
  transport : Rdt_dist.Transport.params option;
      (** picks the run's network once: [None] (the default) runs the
          paper's reliable channels; [Some params] routes every message
          through the reliable-delivery transport over the faulty network,
          which draws from its own split of the run's RNG.  With crashes
          planned, that transport is a per-message stop-and-wait built, as
          the sliding window is, on {!Rdt_dist.Transport.transmit} (the
          window's link cannot express the sends a rollback undoes and the
          deliveries it replays): packets to a crashed process are
          lost and recovered by retransmission, a crashed sender's timers
          die with its volatile state and are re-armed at recovery, and a
          message still unacknowledged after [max_retx] retries is
          abandoned *)
  trace : Rdt_obs.Trace.t;
      (** structured event trace recorder ({!Rdt_obs.Trace.null} by
          default: every instrumentation site reduces to one branch).
          Records sends, deliveries, checkpoints (with the predicates that
          fired for forced ones), on the transport path drops,
          retransmissions and undeliverable messages, and with crashes
          rollbacks (one per process actually truncated at a recovery) and
          message replays, so {!Rdt_obs.Replay.rebuild} reproduces the
          surviving pattern.  An incremental {!Rdt_check.Online} checker
          runs alongside the simulation when tee'd in as
          [Rdt_obs.Trace.tee trace (Rdt_check.Online.observer engine)] *)
}

val default_config : Rdt_dist.Env.t -> Protocol.t -> config
(** 8 processes, seed 1, uniform channel delays in [\[5; 100\]], basic
    period in [\[300; 700\]], 2000 messages, no crashes, no faults, no
    transport, no tracing.  Fields are meant to be overridden with
    [{ (default_config e p) with ... }]. *)

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
  Protocol.t ->
  config
(** Labelled constructor over {!default_config}: every optional argument
    defaults to the corresponding default field, so
    [configure ~seed ~trace env protocol] reads the same across the CLI,
    the fuzzer and the harness.  The one exception: [faults] other than
    {!Rdt_dist.Faults.none} without [transport] select
    {!Rdt_dist.Transport.default_params}, so the run still delivers
    reliably. *)

type recovery = {
  crash : crash;
  line : int array;  (** the recovery line rolled back to *)
  events_undone : int;
  checkpoints_undone : int;
  messages_undone : int;  (** sends discarded (dead messages) *)
  messages_replayed : int;  (** deliveries re-injected from the log *)
}

type result = {
  pattern : Rdt_pattern.Pattern.t;
      (** the delivered communication of the surviving execution: a
          message the transport abandoned as undeliverable, or whose send
          a rollback undid, appears in neither sends nor deliveries *)
  metrics : Metrics.t;
  predicate_counts : (string * int) list;
      (** how many deliveries evaluated each named predicate to true *)
  hierarchy_violations : (string * string) list;
      (** pairs [(weaker, stronger)] observed violating the expected
          implication weaker => stronger at some delivery; always expected
          empty, recorded for the test suite *)
  transport : Rdt_dist.Transport.stats option;
      (** retransmission/ack/drop accounting; [None] on the reliable
          path.  Stop-and-wait fills it from the messages' fates:
          [accepted] counts the sends that survived, each either
          [delivered] or [undeliverable], and [packets_dropped] includes
          copies lost at a crashed host *)
  recoveries : recovery list;  (** one per crash, in occurrence order *)
}

val run : config -> result
(** Executes the configured run to completion (message budget exhausted
    and all channels drained — with a transport, every message ends
    delivered or reported undeliverable in [transport] stats), ending with
    a final checkpoint per process.  The protocol sees each message at
    most once per surviving delivery: at its first in-order arrival, and
    again only if a rollback undid that delivery.

    Meters: [runtime.sim] and [runtime.pattern] spans, [runtime.runs],
    [runtime.messages] (sends), [runtime.forced_ckpts] and
    [runtime.basic_ckpts]; per recovery a [runtime.recovery] span and the
    [runtime.recoveries], [runtime.events_undone] and
    [runtime.messages_replayed] counters.
    @raise Invalid_argument on nonsensical configurations (bad channel or
    fault specs, faults without a transport, bad transport params, crash
    victims out of range, negative crash times, repair delays below 1,
    overlapping crashes of one process). *)
