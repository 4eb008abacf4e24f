(* Binary primitives shared by the snapshot and WAL codecs: CRC-32
   (the IEEE 802.3 polynomial, reflected, the one zlib uses) and a
   little varint/string layer.  Deterministic by construction — the
   encoding of a value is a pure function of the value, so snapshots of
   equal engine states are byte-identical. *)

(* ------------------------------------------------------------------ *)
(* CRC-32                                                              *)
(* ------------------------------------------------------------------ *)

let crc_table =
  lazy
    (Array.init 256 (fun i ->
         let c = ref i in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then invalid_arg "Codec.crc32_sub";
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    let byte = Char.code (String.unsafe_get s i) in
    c := Array.unsafe_get table ((!c lxor byte) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32 s = crc32_sub s ~pos:0 ~len:(String.length s)

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

module Writer = struct
  (* A growable byte buffer we can patch and checksum in place ([Buffer]
     offers neither without copying its contents out). *)
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create () = { buf = Bytes.create 256; len = 0 }

  let length w = w.len

  let clear w = w.len <- 0

  let reserve w extra =
    let need = w.len + extra in
    if need > Bytes.length w.buf then begin
      let buf = Bytes.create (max need (2 * Bytes.length w.buf)) in
      Bytes.blit w.buf 0 buf 0 w.len;
      w.buf <- buf
    end

  let byte w v =
    if w.len = Bytes.length w.buf then reserve w 1;
    Bytes.unsafe_set w.buf w.len (Char.unsafe_chr (v land 0xFF));
    w.len <- w.len + 1

  (* LEB128 over the 63 bits of [v] read as unsigned, so a zigzagged
     [min_int] (all ones) still encodes, in nine bytes *)
  let uvarint w v =
    reserve w 9;
    let v = ref v in
    while !v land lnot 0x7F <> 0 do
      Bytes.unsafe_set w.buf w.len (Char.unsafe_chr (0x80 lor (!v land 0x7F)));
      w.len <- w.len + 1;
      v := !v lsr 7
    done;
    Bytes.unsafe_set w.buf w.len (Char.unsafe_chr !v);
    w.len <- w.len + 1

  let varint w v =
    if v < 0 then invalid_arg "Codec.Writer.varint: negative";
    uvarint w v

  let zigzag w v = uvarint w ((v lsl 1) lxor (v asr 62))

  let opt_varint w = function None -> varint w 0 | Some v -> varint w (v + 1)

  let u32 w v =
    byte w v;
    byte w (v lsr 8);
    byte w (v lsr 16);
    byte w (v lsr 24)

  let set_u32 w ~pos v =
    if pos < 0 || pos + 4 > w.len then invalid_arg "Codec.Writer.set_u32";
    for i = 0 to 3 do
      Bytes.unsafe_set w.buf (pos + i) (Char.unsafe_chr ((v lsr (8 * i)) land 0xFF))
    done

  let string_raw w s =
    let l = String.length s in
    reserve w l;
    Bytes.blit_string s 0 w.buf w.len l;
    w.len <- w.len + l

  let string_ w s =
    varint w (String.length s);
    string_raw w s

  let append w src =
    reserve w src.len;
    Bytes.blit src.buf 0 w.buf w.len src.len;
    w.len <- w.len + src.len

  let crc32_sub w ~pos ~len =
    if pos + len > w.len then invalid_arg "Codec.Writer.crc32_sub";
    crc32_sub (Bytes.unsafe_to_string w.buf) ~pos ~len

  let unsafe_bytes w = w.buf

  let contents w = Bytes.sub_string w.buf 0 w.len

  let copy w = { buf = Bytes.sub w.buf 0 (max 1 w.len); len = w.len }
end

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

module Reader = struct
  exception Short of string
  (* truncated / malformed input; the codecs translate this into their
     own error reporting (a WAL tail cut here is expected, a snapshot
     cut here is corruption) *)

  type t = { buf : string; mutable pos : int; limit : int }

  let of_string ?(pos = 0) ?len buf =
    let limit = match len with None -> String.length buf | Some l -> pos + l in
    if pos < 0 || limit < pos || limit > String.length buf then
      invalid_arg "Codec.Reader.of_string";
    { buf; pos; limit }

  let pos r = r.pos

  let remaining r = r.limit - r.pos

  let byte r =
    if r.pos >= r.limit then raise (Short "byte");
    let v = Char.code (String.unsafe_get r.buf r.pos) in
    r.pos <- r.pos + 1;
    v

  (* The ninth byte lands at bit 56; only seven bits (to bit 62) fit an
     OCaml int, and a tenth byte never does.  [sign_ok] says whether bit
     62 — the sign bit of the result — may be set. *)
  let raw_varint r ~sign_ok =
    let rec go shift acc =
      let b = byte r in
      if shift = 56 then begin
        if b land 0x80 <> 0 || ((not sign_ok) && b land 0x40 <> 0) then
          raise (Short "varint overflow");
        acc lor (b lsl 56)
      end
      else
        let acc = acc lor ((b land 0x7F) lsl shift) in
        if b land 0x80 = 0 then acc else go (shift + 7) acc
    in
    go 0 0

  let varint r = raw_varint r ~sign_ok:false

  let zigzag r =
    let u = raw_varint r ~sign_ok:true in
    (u lsr 1) lxor (-(u land 1))

  let count r =
    let c = varint r in
    if c > remaining r then raise (Short "count exceeds the remaining input");
    c

  let opt_varint r = match varint r with 0 -> None | v -> Some (v - 1)

  let u32 r =
    let a = byte r in
    let b = byte r in
    let c = byte r in
    let d = byte r in
    a lor (b lsl 8) lor (c lsl 16) lor (d lsl 24)

  let skip r len =
    if len < 0 || len > remaining r then raise (Short "skip");
    r.pos <- r.pos + len

  let take r len =
    if len < 0 || len > remaining r then raise (Short "take");
    let s = String.sub r.buf r.pos len in
    r.pos <- r.pos + len;
    s

  let string_ r =
    let len = varint r in
    if len > remaining r then raise (Short "string");
    take r len
end
