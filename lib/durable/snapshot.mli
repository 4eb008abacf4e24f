(** Versioned, CRC-checked binary snapshots of {!Rdt_check.Online}
    engine exports, kept in numbered generations.

    File image: magic ["RDTSNAP1"], u32 payload length, varint-packed
    payload (format version + {!Rdt_check.Online.Export.t}, whose stacks
    hold {!Rdt_pattern.History.entry} values tagged 0 send, 1 receive,
    2 internal, 3 checkpoint), u32 CRC-32 of the payload.  An install is {!write} (tmp, fsync),
    {!publish} (rename), then the caller's directory fsync; the previous generation stays
    on disk as the fallback {!load} callers degrade to on checksum failure. *)

val encode : Rdt_check.Online.Export.t -> string
(** Full file image.  Deterministic: equal exports encode to identical
    bytes.  The reference {!Cache.image} must match byte for byte. *)

(** The file image of a live engine at a cost proportional to what
    changed since the previous image, not to the whole history.

    A cache keeps each RDTSNAP1 section encoded: per process the stack
    section and the stack (newest first, see
    {!Rdt_pattern.History.stack_newest_first}) it was built from, and the
    routes section.  Since history stacks are immutable lists that pushes
    cons onto and rollbacks cut to a physical suffix, a cached stack
    still physically in the current one needs only the cells above it
    encoded; otherwise the section is rebuilt.  Routes append while
    message ids rise; an id that does not re-encodes the section.  The
    header fields, the undeliverable list and the CRC are redone every
    time. *)
module Cache : sig
  type t

  val create : unit -> t

  val image : t -> Rdt_check.Online.t -> Rdt_obs.Codec.Writer.t
  (** The file image of the engine's current state, equal byte for byte
      to [encode (Online.export engine)].  The buffer belongs to the
      cache and is overwritten by the next call.  Feeding one cache
      different engines is allowed (it starts over on a new history). *)

  val copy : t -> t
  (** A cache that continues independently of this one (for measuring
      one image step repeatedly). *)
end

val decode : string -> (Rdt_check.Online.Export.t, string) result
(** Validates magic, length and CRC before touching the payload; any
    damage comes back as [Error], never an exception or a wrong
    export. *)

val path : dir:string -> gen:int -> string

val generations : dir:string -> int list
(** Snapshot generations present in [dir], newest first. *)

val write : dir:string -> gen:int -> Rdt_obs.Codec.Writer.t -> unit
(** Write generation [gen]'s file image (from {!Cache.image}) to its tmp
    file, from the buffer without a copy, and fsync it.  Nothing is
    installed yet: recovery deletes a leftover tmp file.
    @raise Io.Error on ENOSPC or persistent I/O failure; may raise
    {!Crashpoint.Crash} under fault injection. *)

val publish : dir:string -> gen:int -> unit
(** Rename the tmp file {!write} made to [snap-<gen>.bin], atomically.
    The rename is durable only after the caller's {!Io.fsync_dir}. *)

val load : dir:string -> gen:int -> (Rdt_check.Online.Export.t, string) result
(** [Error] covers both a missing generation and a corrupt one. *)

val remove : dir:string -> gen:int -> unit
(** Best-effort delete (retention, and disposal of known-bad files). *)
