(** The [rdtsim serve] daemon core: many concurrent client event
    streams, one {!Rdt_check.Online} engine per stream, multiplexed
    over a single-threaded [select] loop with the batched {e apply}
    phase fanned out over an injected parallel mapper (the domain
    [Pool], in the CLI).

    {2 Streams and connections}

    A {e stream} is a named checker session ({!Rdt_check.Session});
    a {e connection} is one client socket.  Streams outlive
    connections: a client that disconnects mid-stream (the
    intermittent-mobile-host case) reattaches by sending [Hello] with
    the same stream name and is told how many events are already
    applied ([Welcome.resumed]).  With a durable root configured,
    streams also outlive the daemon itself — every stream persists
    through [Rdt_durable.Session] under [durable_root/<stream>/], and a
    SIGKILL'd daemon recovers each stream from its WAL + snapshot chain
    on the stream's next [Hello].

    {2 Ordering and backpressure}

    Frames on one connection are processed strictly in order; [Query],
    [Sync] and [Bye] act only once every event previously sent on the
    stream has been applied, so answers are linearized against the
    client's own writes.  Ingested events wait in a per-stream pending
    queue bounded by [max_pending]: when a stream's queue is full the
    server simply stops reading that connection's socket — kernel
    buffers fill and the client blocks, no frame is ever dropped.  Each
    {!step} applies at most [max_batch] events per stream, all busy
    streams in parallel through the mapper.

    The loop is step-driven (no threads, no signals) so tests can
    interleave client writes and server steps deterministically in one
    process. *)

type config = {
  socket : string;  (** Unix-domain socket path (unlinked on create/close). *)
  durable_root : string option;
      (** Directory holding one [Rdt_durable.Session] per stream;
          [None] serves ephemeral in-memory streams. *)
  snapshot_every : int;  (** Durable snapshot cadence (events). *)
  max_batch : int;  (** Events applied per stream per {!step}. *)
  max_pending : int;
      (** Pending-queue bound per stream; reading from a connection
          pauses while its stream is over the bound (the queue can
          overshoot by at most the last frame's batch). *)
}

val default_config : socket:string -> config
(** Ephemeral serving: [snapshot_every] from
    {!Rdt_durable.Session.default_config}, [max_batch = 256],
    [max_pending = 4096]. *)

type mapper = { map : 'a 'b. ('a -> 'b) -> 'a list -> 'b list }
(** How the apply phase fans out over busy streams.  Injected (rather
    than calling [Rdt_harness.Pool] directly) so the harness can depend
    on this library for benchmarks without a dependency cycle. *)

val seq_mapper : mapper
(** [List.map] — single-domain serving. *)

type t

val create :
  ?mapper:mapper -> ?meter:Rdt_obs.Meter.t -> ?trace:Rdt_obs.Trace.t -> config -> t
(** Bind and listen.  Replaces a stale socket file (left by a killed
    daemon) rather than failing.  Meters into [meter] (default
    {!Rdt_obs.Meter.default}): counters [serve.connections],
    [serve.events], [serve.batches], [serve.queries]; gauges
    [serve.streams], [serve.queue_depth]; spans [serve.apply],
    [serve.query].  [trace] is a debug audit log: every applied event
    is re-emitted to it, all streams interleaved in application order.
    @raise Unix.Unix_error when the socket cannot be bound. *)

val step : ?timeout:float -> t -> int
(** One loop iteration: poll ([timeout] seconds, default [0.]; no wait
    while any stream has events queued), accept, read, process frames,
    apply one batch per busy stream, flush replies.  Returns the number of work units (frames processed +
    events applied) — [0] means the step was idle, so drivers can spin
    until quiescent. *)

val run : stop:(unit -> bool) -> t -> unit
(** {!step} until [stop ()], blocking up to 0.05 s per idle iteration.
    [stop] is also consulted between steps, so a signal-flag closure
    makes SIGTERM prompt. *)

val streams : t -> string list
(** Names of live streams, sorted. *)

val close : t -> unit
(** Graceful: sync + close every stream session, close every socket,
    unlink the socket path.  Idempotent. *)

val abort : t -> unit
(** Crash-simulation teardown: close sockets but {e abort} durable
    sessions (no detach sync, no final sync) — whatever a real SIGKILL
    would lose must stay lost.  Tests use this to exercise recovery. *)
