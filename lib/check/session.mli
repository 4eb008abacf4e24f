(** Unified checker-session surface.

    Before this module, each consumer of the online checker had its own
    ad-hoc entry point: [rdtsim watch] drove {!Online} (or
    [Rdt_durable.Session]) directly, tests called [Online.check_trace],
    and there was no way to serve a stream remotely at all.  [Session]
    extracts the one interface they all share — open, observe, query,
    snapshot, close — so the same driver loop works over an ephemeral
    in-memory engine, a crash-safe durable session, or (via {!Wire}) a
    socket to a remote [rdtsim serve] daemon.

    A session is a {e stream}: events are applied strictly in order,
    queries observe exactly the prefix applied so far, and an
    inconsistent event (one no run could have produced) permanently
    fails the stream without being persisted.

    {!Wire} defines the typed request/response vocabulary and its
    versioned binary codec; {!Frame} the length-delimited framing both
    ends of a connection use.  Keeping the codec here (rather than in
    the server) means [watch], [serve], the [feed] client and the tests
    all speak — and type-check against — the same protocol. *)

(** {1 Sessions} *)

type backend = {
  engine : unit -> Online.t;
      (** The live engine answering queries.  For durable backends this
          is re-read per call: recovery may swap the engine instance. *)
  observe : Rdt_obs.Trace.event -> unit;
      (** Apply one event.  May raise [Online.Inconsistent]; the
          backend must not persist the offending event. *)
  sync : unit -> unit;  (** Force durability of everything observed. *)
  close : unit -> unit;  (** Release resources; engine stays queryable. *)
}
(** What a concrete store must provide.  {!Online} needs no wrapping
    beyond {!ephemeral}; [Rdt_durable.Session.checker_session] adapts a
    durable session; tests can interpose counting/fault-injecting
    backends. *)

type t

val of_backend : backend -> t

val ephemeral : n:int -> unit -> t
(** A session over a fresh in-memory {!Online.create} engine: [sync] is
    a no-op and nothing survives [close]. *)

val engine : t -> Online.t
(** The underlying engine, for read-only queries ({!Online.rdt_so_far},
    {!Online.trackable}, {!Online.summary}, ...).  Mutating it directly
    bypasses the backend's persistence — don't. *)

val observe : t -> Rdt_obs.Trace.event -> (unit, string) result
(** Apply one event.  [Error] reports an inconsistent stream
    ([Online.Inconsistent]); the session is closed to further events
    and {!closed} becomes [true].  Storage failures (e.g. a durable
    backend's I/O errors) are not stream errors and propagate as
    exceptions. *)

val feed : t -> Rdt_obs.Trace.event list -> (unit, string) result
(** {!observe} in order, stopping at the first inconsistent event. *)

val sync : t -> unit

val close : t -> unit
(** Idempotent.  The engine remains queryable after close. *)

val summary : t -> Online.summary

val pattern : t -> (Rdt_pattern.Pattern.t, string) result
(** The checkpoint-and-communication pattern of everything observed so
    far: [Rdt_pattern.History.to_pattern] over the engine's surviving
    history ({!Online.history}).  Checkpoint times are sequence numbers
    and kinds are [Basic], not the original trace's — causal structure
    (and hence every [Min_gcp] answer) is preserved exactly.  [Error]
    when the stream is mid-rollback-cascade ({!Online.orphan_messages}
    non-empty): surviving deliveries of rolled-back sends have no
    pattern yet. *)

(** {1 Wire protocol} *)

(** Typed request/response vocabulary for serving sessions over a
    byte stream, with a versioned binary codec on {!Rdt_obs.Codec}: a
    body is a tag byte for its constructor, then its fields in
    declaration order, events as the {!Rdt_obs.Codec.encode_event}
    records WAL segments hold.  Version negotiation is pessimistic: a
    [Hello] carrying a version the server does not speak is rejected
    before any state is created.

    {2 The acknowledgement contract}

    Against a durable daemon ([rdtsim serve --durable]) the responses
    promise exactly this much:
    - an [Ack] that answers [Sync], the [Goodbye] that answers [Bye], a
      graceful detach (the client's connection closes) and a graceful
      daemon shutdown each mean every event of the stream up to [seen]
      is fsynced;
    - an [Ack] after a batch of [Events] means those events are
      {e applied} (queries see them), not that they are durable;
    - killing the daemon loses at most the WAL records still in its
      pending buffer (less than 4 KiB of records per stream);
    - a machine crash loses at most the events after the stream's last
      sync point.  Each snapshot install is one, so the daemon's
      [--snapshot-every] bounds that window.
    [Welcome.resumed] after a restart counts what recovery found, which
    covers at least every event a durability promise was made for.
    The same contract holds for [rdtsim watch --durable]: its verdict
    line is printed only after the session's [close], a sync point. *)
module Wire : sig
  val version : int
  (** Current protocol version, [2].  Bump on any change to the frame
      vocabulary or its encoding; servers reject other versions. *)

  type query =
    | Rdt_so_far  (** Has RDT held over the whole stream so far? *)
    | Zcycle  (** Does the current pattern contain a Z-cycle? *)
    | Summary  (** Full verdict summary. *)
    | Trackable of Rdt_pattern.Types.ckpt_id * Rdt_pattern.Types.ckpt_id
    | Min_gcp of Rdt_pattern.Types.ckpt_id list
        (** Minimum consistent global checkpoint containing the set
            (Corollary 4.5 machinery); answered from the reconstructed
            pattern. *)
    | Max_gcp of Rdt_pattern.Types.ckpt_id list

  type answer =
    | Flag of bool
    | Stats of Online.summary
    | Cut of int array option
        (** A global checkpoint as checkpoint indices per process, or
            [None] when no consistent one contains the set. *)

  type reject =
    | Inconsistent  (** Stream no run could have produced — exit 2. *)
    | Unrecoverable  (** Durable state beyond recovery — exit 3. *)
    | Protocol  (** Malformed or out-of-order frame — exit 2. *)

  type request =
    | Hello of { version : int; stream : string; n : int }
        (** Open or reattach to stream [stream] over processes
            [0..n-1].  Must be the first frame on a connection. *)
    | Events of Rdt_obs.Trace.event list
        (** Append a batch.  Acknowledged (cumulatively) by [Ack]. *)
    | Query of { id : int; query : query }
        (** Answered by [Answer] or [Failed] echoing [id], after every
            previously sent event has been applied. *)
    | Sync
        (** Force durability; acknowledged by an [Ack] whose [seen]
            events are all on stable storage. *)
    | Bye
        (** Graceful end of stream; answered by [Goodbye], after the
            stream's [close] (a sync point). *)

  type response =
    | Welcome of { version : int; stream : string; resumed : int }
        (** [resumed] is the number of events the stream already holds
            (applied, or recovered after a restart) — the client must
            skip that prefix. *)
    | Ack of { seen : int }
        (** Cumulative events applied; durable too when it answers
            [Sync]. *)
    | Answer of { id : int; answer : answer }
    | Failed of { id : int; error : string }
        (** The query (not the stream) failed, e.g. an unknown
            checkpoint id or a mid-cascade pattern query. *)
    | Rejected of { code : reject; error : string }
        (** The stream is dead; every later frame is rejected too. *)
    | Goodbye of { seen : int; summary : Online.summary; orphans : int list }
        (** Final verdict.  [orphans] non-empty means the stream ended
            mid-rollback-cascade (exit 2 for the client). *)

  val max_events : int
  (** The most events one [Events] body may carry, [65_536]: a decoder
      refuses a larger count before it reads a single record. *)

  val batches : int -> Rdt_obs.Trace.event list -> Rdt_obs.Trace.event list list
  (** [batches k events] cuts [events] into the payloads of consecutive
      [Events] frames of [k] events each, the last one shorter.
      @raise Invalid_argument if [k < 1]. *)

  val exit_code_of_reject : reject -> int
  (** The unified exit-code table (see [rdtsim watch --help]):
      {!Inconsistent} and {!Protocol} map to 2, {!Unrecoverable} to 3. *)

  val encode_request : request -> string
  (** One binary body. *)

  val decode_request : string -> (request, string) result
  (** Strict: a short body, trailing bytes, an unknown tag or an overlong
      varint is an [Error], never an exception; so is a version-1 (JSON)
      body.  A later version's hello is read up to its version, the first
      field, as [Hello { version; stream = ""; n = 0 }]. *)

  val encode_response : response -> string

  val decode_response : string -> (response, string) result
  (** Strict, as {!decode_request}. *)
end

(** Length-delimited framing: each frame is ["<len> <payload>\n"] where
    [len] is the byte length of [payload] in decimal.  The explicit
    length lets payloads stay opaque to the transport and makes torn
    frames detectable. *)
module Frame : sig
  val encode : string -> string

  type decoder
  (** Incremental decoder for one byte stream.  Feed raw reads in any
      chunking; pull complete frames out with {!next}. *)

  val decoder : unit -> decoder

  val feed : decoder -> bytes -> off:int -> len:int -> unit

  val next : decoder -> (string option, string) result
  (** The next complete payload, [Ok None] if more bytes are needed,
      [Error] on malformed framing (the decoder is then poisoned). *)

  val buffered : decoder -> int
  (** Bytes fed but not yet returned by {!next}. *)
end
