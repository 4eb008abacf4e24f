(** Append-only write-ahead log of observed trace events, one segment
    per snapshot generation.

    [wal-<gen>.log] holds the events observed while snapshot generation
    [gen] was the newest installed one (gen 0: since the fresh engine).
    Records are length-prefixed and CRC-checked; a crash can tear the
    final frame, which {!read} detects and stops before, and {!reopen}
    truncates away.  Segments of format {!version} 2 hold binary event
    records ({!Rdt_obs.Codec.encode_event}); version-1 segments (Trace
    JSONL records) are read, never appended to.  A damaged {e header} record
    invalidates the whole segment ([Error] from {!read}), forcing
    recovery down a generation. *)

val version : int
(** The format version {!create} writes (2).  {!read} also accepts 1. *)

val max_frame : int
(** The largest record payload, 1 MiB; {!read} takes a longer frame for
    a torn tail. *)

type header = {
  gen : int;
  base_events : int;  (** events already covered by snapshot [gen] *)
  n : int;
  track_open : bool;
}

(** {1 Event records} *)

val oversized : Rdt_obs.Trace.event -> int option
(** [Some len] if the event's payload of [len] bytes exceeds
    {!max_frame}, so a reader would take its frame for a torn tail.
    Encodes only an event whose strings or lists could reach the limit. *)

val add_record : Rdt_obs.Codec.Writer.t -> Rdt_obs.Trace.event -> int
(** Append one framed event record (length, payload, CRC) to the buffer;
    returns its size in bytes.  What {!append} does to the pending
    buffer. *)

(** {1 Files} *)

val path : dir:string -> gen:int -> string

val segments : dir:string -> int list
(** Segment generations present in [dir], oldest first (replay order). *)

val remove : dir:string -> gen:int -> unit

(** {1 Reading} *)

type read_result = {
  header : header;
  version : int;  (** the segment's format version, 1 or 2 *)
  events : Rdt_obs.Trace.event list;
  valid_len : int;  (** byte length of the longest valid prefix *)
  torn : string option;
      (** why reading stopped before end-of-file, if it did (expected
          after a crash; the tail past [valid_len] is garbage) *)
}

val read : dir:string -> gen:int -> (read_result, string) result

(** {1 Writing} *)

type writer

val create : dir:string -> gen:int -> header:header -> writer
(** Start segment [gen] (truncating any leftover) and hand its header
    record to the kernel, with no fsync: the header becomes durable with
    the segment's first {!sync}, and the file's directory entry only with
    a directory fsync, which is the caller's ({!Io.fsync_dir}).  The
    [gen] field of [header] is overridden with [gen].  @raise Io.Error on
    I/O failure; may raise {!Crashpoint.Crash} under fault injection. *)

val reopen : dir:string -> gen:int -> valid_len:int -> writer
(** Reopen an existing segment for append, truncating the torn tail
    found by {!read}.  Only a segment of the current {!version} may then
    be appended to. *)

val gen : writer -> int

val append : writer -> Rdt_obs.Trace.event -> unit
(** Frame one event record into the pending buffer in memory, and hand
    the buffer to the kernel (one [write]) once it holds 4 KiB of framed
    records: a process killed between two {!sync}s loses less than
    4 KiB of records, all at the tail.
    @raise Invalid_argument on an {!oversized} event, appending nothing. *)

val sync : writer -> int
(** Write the pending buffer, then fsync if anything was appended since
    the last sync.  Returns the event-record bytes this made durable (0:
    no fsync).  Durability of appended events may be claimed only after
    this returns. *)

val close : writer -> unit
(** Sync, then close (idempotent). *)

val abort : writer -> unit
(** Close {e without} flushing the pending buffer — the crash-simulation
    teardown: the un-flushed tail must stay lost, exactly as a real kill
    would leave it. *)
