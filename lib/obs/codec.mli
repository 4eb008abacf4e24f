(** Binary primitives shared by the snapshot, WAL and serve-wire codecs,
    and the one binary record of a {!Trace.event} that WAL segments and
    the serve wire both carry.

    Deterministic by construction: the encoding of a value is a pure
    function of the value, so snapshots of equal engine states are
    byte-identical (the crash-matrix tests rely on it). *)

val crc32 : string -> int
(** IEEE CRC-32 (the zlib polynomial) of the whole string, as a
    non-negative int. *)

val crc32_sub : string -> pos:int -> len:int -> int

module Writer : sig
  type t
  (** A growable byte buffer that can be cleared and reused, patched and
      checksummed in place. *)

  val create : unit -> t
  val length : t -> int

  val clear : t -> unit
  (** Empty the buffer, keeping its storage for reuse. *)

  val byte : t -> int -> unit

  val varint : t -> int -> unit
  (** Unsigned LEB128.  @raise Invalid_argument on negatives: use
      {!zigzag} for values that may be negative. *)

  val zigzag : t -> int -> unit
  (** Any int, [min_int] and [max_int] included: zigzag-mapped
      ([0, -1, 1, -2, ...] to [0, 1, 2, 3, ...]) onto the 63-bit
      unsigned range, then LEB128 (at most nine bytes). *)

  val opt_varint : t -> int option -> unit
  (** [None] as [0], [Some v] as [v + 1]. *)

  val u32 : t -> int -> unit
  (** Fixed-width little-endian 32-bit (lengths and CRCs, so a torn tail
      is detected by size arithmetic alone). *)

  val set_u32 : t -> pos:int -> int -> unit
  (** Overwrite the four bytes at [pos] (a length written before the
      payload it measures). *)

  val string_raw : t -> string -> unit
  (** Raw bytes, no length prefix (frame payloads whose length travels
      in a fixed-width field). *)

  val string_ : t -> string -> unit

  val append : t -> t -> unit
  (** [append w src] adds the contents of [src] to [w]. *)

  val crc32_sub : t -> pos:int -> len:int -> int
  (** CRC-32 of bytes [pos, pos + len) of the contents, without copying
      them out. *)

  val unsafe_bytes : t -> Bytes.t
  (** The storage itself: its first {!length} bytes are the contents.
      Valid until the next write; for handing the buffer to a write
      syscall without a copy. *)

  val contents : t -> string

  val copy : t -> t
end

module Reader : sig
  exception Short of string
  (** Truncated or malformed input.  Callers translate: a WAL tail cut
      here is an expected torn write; a snapshot cut here is
      corruption. *)

  type t

  val of_string : ?pos:int -> ?len:int -> string -> t
  val pos : t -> int
  val remaining : t -> int
  val byte : t -> int

  val varint : t -> int
  (** @raise Short on truncation or on any value that does not fit a
      non-negative int (an overlong or sign-setting encoding). *)

  val zigzag : t -> int
  (** Inverse of {!Writer.zigzag}.  @raise Short on truncation or a
      value wider than 63 bits. *)

  val count : t -> int
  (** A {!varint} element count, checked against {!remaining} before the
      caller allocates anything: every element takes at least one byte,
      so a larger count can only be corruption.  @raise Short. *)

  val opt_varint : t -> int option
  val u32 : t -> int

  val skip : t -> int -> unit

  val string_ : t -> string
end

(** {1 Event records} *)

val encode_event : Writer.t -> Trace.event -> unit
(** The binary payload of one event, as version-2 WAL segments frame it
    and serve [Events] bodies carry it: a tag byte, then the fields in
    declaration order — ints zigzag-varint, strings and lists length
    prefixed.  Covers every int, [min_int] and [max_int] included. *)

val read_event : Reader.t -> Trace.event
(** Inverse of {!encode_event}, reading one payload from the reader's
    position.  @raise Reader.Short on truncation, an unknown tag or
    kind, or an overlong varint. *)

val size_bound : Trace.event -> int
(** An upper bound on {!encode_event}'s size for the event, found
    without encoding it. *)

val decode :
  what:string -> (Reader.t -> 'a) -> ?pos:int -> ?len:int -> string -> ('a, string) result
(** [decode ~what read s] reads exactly one value from [s] (or its [len]
    bytes from [pos]) with [read]: {!Reader.Short} and trailing bytes
    (named by [what]) are an [Error], never an exception. *)

val decode_event : ?pos:int -> ?len:int -> string -> (Trace.event, string) result
(** {!decode} of {!read_event}: a truncated payload, trailing bytes or an
    out-of-range tag is an [Error], never an exception. *)
