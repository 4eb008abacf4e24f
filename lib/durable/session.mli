(** The durable-session driver: an {!Rdt_check.Online} engine whose
    state survives being killed at any instant.

    A session directory holds numbered WAL segments ([wal-<g>.log],
    never deleted — a full replay from generation 0 is always the last
    fallback) and the newest few snapshot generations ([snap-<g>.bin]).
    {!observe} runs the engine first, then appends the event to the
    active segment, fsyncing every [wal_fsync_every] events and
    installing a fresh snapshot generation every [snapshot_every];
    a crash loses at most the un-synced tail, which the caller re-feeds
    (resume from {!Rdt_check.Online.events_seen} of the recovered
    {!engine}).

    Recovery degrades gracefully: newest snapshot + segment replay, then
    each older snapshot, then full-WAL replay, and only when every chain
    fails raises [Io.Error (Corrupt _)].  The recovered engine is
    bit-identical in its answers to an uninterrupted run over the same
    durable prefix — the crash-matrix tests in [test/test_durable.ml]
    hold this for every crash site. *)

type config = {
  snapshot_every : int;  (** events between snapshot installs *)
  wal_fsync_every : int;  (** events between WAL fsyncs *)
  keep_snapshots : int;  (** snapshot generations retained (>= 2) *)
}

val default_config : config
(** [{ snapshot_every = 1000; wal_fsync_every = 32; keep_snapshots = 2 }] *)

type recovery = {
  restored_gen : int option;  (** snapshot used; [None] = full-WAL replay *)
  replayed_events : int;
  skipped : (int * string) list;
      (** snapshot generations that failed validation, newest first;
          their files are deleted after a successful recovery *)
  torn : (int * string) list;  (** segments whose torn tail was cut *)
}

val pp_recovery : Format.formatter -> recovery -> unit

type t

val open_ :
  ?config:config ->
  ?meter:Rdt_obs.Meter.t ->
  dir:string ->
  n:int ->
  track_open:bool ->
  unit ->
  t * recovery option
(** Open (creating [dir] if needed) or recover a session.  [None]: the
    directory held no durable state and a fresh engine was started.
    [Some info]: state was recovered; resume feeding events from index
    [Online.events_seen (engine t)].

    A directory written with version-1 WAL segments (JSON records)
    recovers and resumes: its last segment is never appended to — open
    installs a snapshot at once, and appends go to its fresh version-2
    segment.

    Meters [recovery.replayed_events]; {!observe} meters the
    [durable.snapshot] span and, at each WAL sync, [wal.fsync] and the
    event bytes framed since the previous sync ([wal.bytes]).

    @raise Io.Error [(Corrupt _)] when no recovery chain succeeds, or
    the durable state disagrees with [n]/[track_open]; other [Io.Error]s
    on I/O failure.
    @raise Invalid_argument on a nonsensical [config]. *)

val observe : t -> Rdt_obs.Trace.event -> unit
(** Engine first, then the WAL — an event the engine rejects
    ([Online.Inconsistent]) is never persisted.  An event whose WAL
    record would exceed {!Wal.max_frame} is refused the same way, before
    the engine sees it, so the engine and the log never disagree. *)

val engine : t -> Rdt_check.Online.t
(** Query freely ([summary], [violations], ...); do not feed it
    directly — events bypassing {!observe} would not be durable. *)

val dir : t -> string

val generation : t -> int
(** Generation of the active WAL segment (= newest installed snapshot,
    0 before the first install). *)

val sync : t -> unit
(** Force the buffered WAL tail to stable storage now. *)

val close : t -> unit
(** Sync and release (idempotent). *)

val abort : t -> unit
(** Release {e without} syncing — crash-simulation teardown: whatever a
    simulated crash left un-flushed must stay lost. *)

val checker_session : t -> Rdt_check.Session.t
(** Adapt a durable session to the unified checker-session interface:
    [observe] is {!observe} (engine first, WAL second — an inconsistent
    event is never persisted), [sync] is {!sync}, [close] is {!close}.
    The adapter shares this session's state; drive a given session
    through one surface or the other, not both. *)
