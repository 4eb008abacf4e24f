(** Versioned, CRC-checked binary snapshots of {!Rdt_check.Online}
    engine exports, kept in numbered generations.

    File image: magic ["RDTSNAP1"], u32 payload length, varint-packed
    payload (format version + {!Rdt_check.Online.Export.t}, whose stacks
    hold {!Rdt_pattern.History.entry} values tagged 0 send, 1 receive,
    2 internal, 3 checkpoint), u32 CRC-32 of the payload.  {!install} is write-tmp -> fsync -> rename ->
    fsync(dir); the previous generation stays on disk as the fallback
    {!load} callers degrade to on checksum failure. *)

val version : int
(** Current wire-format version (encoded in the payload). *)

val encode : Rdt_check.Online.Export.t -> string
(** Full file image.  Deterministic: equal exports encode to identical
    bytes. *)

val decode : string -> (Rdt_check.Online.Export.t, string) result
(** Validates magic, length and CRC before touching the payload; any
    damage comes back as [Error], never an exception or a wrong
    export. *)

val filename : gen:int -> string
(** [snap-<gen>.bin]. *)

val path : dir:string -> gen:int -> string

val generations : dir:string -> int list
(** Snapshot generations present in [dir], newest first. *)

val install : dir:string -> gen:int -> Rdt_check.Online.Export.t -> unit
(** Atomically install generation [gen].  @raise Io.Error on ENOSPC or
    persistent I/O failure; may raise {!Crashpoint.Crash} under fault
    injection. *)

val load : dir:string -> gen:int -> (Rdt_check.Online.Export.t, string) result
(** [Error] covers both a missing generation and a corrupt one. *)

val remove : dir:string -> gen:int -> unit
(** Best-effort delete (retention, and disposal of known-bad files). *)
