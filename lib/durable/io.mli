(** Crash-instrumented, retrying I/O primitives.

    The durable layer's only route to the filesystem.  Raw [Unix]
    descriptors (no stdlib channel buffering: a finalizer flush would
    make simulated crashes {e more} durable than real ones), transient
    failures (EINTR/EAGAIN, short writes) retried with a bounded linear
    backoff, ENOSPC and persistent failures surfaced as the typed
    {!error}, and every potentially-torn instant announced to
    {!Crashpoint}. *)

type error =
  | No_space of string  (** ENOSPC while writing the named file *)
  | Io_error of string  (** transient error that survived the bounded retry *)
  | Corrupt of string  (** durable state damaged beyond every fallback *)

exception Error of error

val error_message : error -> string

val fail : error -> 'a
(** [raise (Error e)]. *)

val write_all : name:string -> ?len:int -> Unix.file_descr -> Bytes.t -> unit
(** Write every byte (the first [len], default all), looping over short
    writes.  Crash site
    [name.write] (with torn-prefix semantics: an armed hit writes half
    the bytes for real, then raises). *)

val fsync : name:string -> Unix.file_descr -> unit
(** Crash site [name.fsync]; durability may be claimed only after this
    returns.  Counts one durability call in the [io.fsync] counter of
    {!Rdt_obs.Meter.default}. *)

val fsync_dir : string -> unit
(** Make renames/creations in the directory durable (best-effort where
    the filesystem refuses directory fsync).  Crash site [dir.fsync].
    Counts one durability call in [io.fsync], as {!fsync} does. *)

val rename : src:string -> dst:string -> unit
(** Atomic install step.  Crash site [rename]. *)

val openfile : name:string -> string -> Unix.open_flag list -> int -> Unix.file_descr

val close_noerr : Unix.file_descr -> unit

val read_file : name:string -> string -> string option
(** Whole-file read; [None] if the file does not exist. *)

val unlink_quiet : string -> unit
(** [unlink], swallowing every [Unix_error] (ENOENT being the point). *)

val ftruncate : name:string -> Unix.file_descr -> int -> unit
(** Truncate with the bounded retry policy; used to drop a torn WAL tail. *)

val recv : Unix.file_descr -> Bytes.t -> int -> int -> int
(** [Unix.read] retrying EINTR only.  EAGAIN/EWOULDBLOCK and every other
    [Unix_error] escape untouched: on the serve layer's nonblocking
    sockets they are event-loop control flow, not failures. *)

val send_substring : Unix.file_descr -> string -> int -> int -> int
(** [Unix.write_substring] with the same EINTR-only retry as {!recv}. *)
