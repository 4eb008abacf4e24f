(** The durable-session driver: an {!Rdt_check.Online} engine whose
    state survives being killed at any instant.

    A session directory holds numbered WAL segments ([wal-<g>.log],
    never deleted — a full replay from generation 0 is always the last
    fallback) and the newest few snapshot generations ([snap-<g>.bin]).
    {!observe} runs the engine first, then appends the event to the
    active segment, installing a fresh snapshot generation every
    [snapshot_every] events (the newest two are kept).

    Durability (DESIGN.md § Durability): the WAL is fsynced only at a
    snapshot install, at the [sync] of {!checker_session} and at
    {!close}; once one of them returns, every event observed so far is
    on stable storage.  Between them the WAL's pending buffer goes to
    the kernel at every 4 KiB of records, so a process kill loses less
    than 4 KiB of records and a machine crash loses at most the events
    since the last sync point (fewer than [snapshot_every]).  The caller
    re-feeds the lost tail: resume from
    {!Rdt_check.Online.events_seen} of the recovered {!engine}.

    Recovery degrades gracefully: newest snapshot + segment replay, then
    each older snapshot, then full-WAL replay, and only when every chain
    fails raises [Io.Error (Corrupt _)].  The recovered engine is
    bit-identical in its answers to an uninterrupted run over the same
    durable prefix — the crash-matrix tests in [test/test_durable.ml]
    hold this for every crash site. *)

type config = { snapshot_every : int  (** events between snapshot installs *) }

val default_config : config
(** [{ snapshot_every = 1000 }] *)

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
    [Online.events_seen (engine t)].  Snapshot generations past the
    newest two are deleted here; the session then tracks the generations
    it keeps in memory and never lists the directory again.

    A directory written with version-1 WAL segments (JSON records)
    recovers and resumes: its last segment is never appended to — open
    installs a snapshot at once, and appends go to its fresh version-2
    segment.

    Meters [recovery.replayed_events]; {!observe} meters the
    [durable.snapshot] span and, at each sync point that fsyncs the WAL,
    [wal.fsync] and the event bytes framed since the previous one
    ([wal.bytes]).

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

val generation : t -> int
(** Generation of the active WAL segment (= newest installed snapshot,
    0 before the first install). *)

val close : t -> unit
(** Sync and release (idempotent): a sync point, so every observed event
    is durable once it returns. *)

val abort : t -> unit
(** Release {e without} syncing — crash-simulation teardown: whatever a
    simulated crash left un-flushed must stay lost. *)

val checker_session : t -> Rdt_check.Session.t
(** Adapt a durable session to the unified checker-session interface:
    [observe] is {!observe} (engine first, WAL second — an inconsistent
    event is never persisted), [sync] writes the pending WAL tail and
    fsyncs it (a sync point), [close] is {!close}.
    The adapter shares this session's state; drive a given session
    through one surface or the other, not both. *)
