(* Binary primitives shared by the snapshot, WAL and serve-wire codecs:
   CRC-32 (the IEEE 802.3 polynomial, reflected, the one zlib uses), a
   little varint/string layer, and the one binary record of a trace
   event.  Deterministic by construction — the encoding of a value is a
   pure function of the value, so snapshots of equal engine states are
   byte-identical. *)

(* ------------------------------------------------------------------ *)
(* CRC-32                                                              *)
(* ------------------------------------------------------------------ *)

(* Slicing-by-8: [crc_tables] holds eight 256-entry tables back to back.
   Table 0 is the byte-at-a-time table; entry [b] of table [k] is the
   CRC register after byte [b] is followed by [k] zero bytes, so one
   step folds eight bytes with eight lookups.  Built once at start-up
   (16 KiB): a lazy table is not safe to force from two domains. *)
let crc_tables =
  let t = Array.make (8 * 256) 0 in
  for i = 0 to 255 do
    let c = ref i in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(i) <- !c
  done;
  for k = 1 to 7 do
    for i = 0 to 255 do
      let c = t.(((k - 1) lsl 8) lor i) in
      t.((k lsl 8) lor i) <- t.(c land 0xFF) lxor (c lsr 8)
    done
  done;
  t

let crc32_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then invalid_arg "Codec.crc32_sub";
  let t = crc_tables in
  let get k b = Array.unsafe_get t ((k lsl 8) lor (b land 0xFF)) in
  let c = ref 0xFFFFFFFF and i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    (* two little-endian words; the low one absorbs the register *)
    let lo = (Int32.to_int (String.get_int32_le s !i) land 0xFFFFFFFF) lxor !c in
    let hi = Int32.to_int (String.get_int32_le s (!i + 4)) land 0xFFFFFFFF in
    c :=
      get 7 lo
      lxor get 6 (lo lsr 8)
      lxor get 5 (lo lsr 16)
      lxor get 4 (lo lsr 24)
      lxor get 3 hi
      lxor get 2 (hi lsr 8)
      lxor get 1 (hi lsr 16)
      lxor get 0 (hi lsr 24);
    i := !i + 8
  done;
  for i = stop8 to pos + len - 1 do
    let byte = Char.code (String.unsafe_get s i) in
    c := get 0 (!c lxor byte) lxor (!c lsr 8)
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

(* ------------------------------------------------------------------ *)
(* Event records                                                       *)
(* ------------------------------------------------------------------ *)

(* The payload of one [Trace.event], as WAL segments of version 2 frame
   it and as the serve wire carries it: a tag byte (the constructor's
   position in [Trace.event]) and the fields in declaration order, every
   int zigzag-varint, strings and lists length prefixed, a bool or
   checkpoint kind one byte, a TDV a varint [0 = None | length + 1] then
   its entries. *)

module Ptypes = Rdt_pattern.Types
module W = Writer
module R = Reader


let kind_code = function Ptypes.Initial -> 0 | Basic -> 1 | Forced -> 2 | Final -> 3

let encode_event w (ev : Trace.event) =
  let int = W.zigzag w in
  match ev with
  | Meta { n; protocol; env; seed; mode } ->
      W.byte w 0;
      int n;
      W.string_ w protocol;
      W.string_ w env;
      int seed;
      W.string_ w mode
  | Send { msg; src; dst; time } ->
      W.byte w 1;
      int msg;
      int src;
      int dst;
      int time
  | Deliver { msg; src; dst; time } ->
      W.byte w 2;
      int msg;
      int src;
      int dst;
      int time
  | Internal { pid; time } ->
      W.byte w 3;
      int pid;
      int time
  | Ckpt { pid; index; kind; time; tdv; preds } ->
      W.byte w 4;
      int pid;
      int index;
      W.byte w (kind_code kind);
      int time;
      (match tdv with
      | None -> W.varint w 0
      | Some a ->
          W.varint w (Array.length a + 1);
          Array.iter int a);
      W.varint w (List.length preds);
      List.iter (W.string_ w) preds
  | Retransmit { src; dst; seq; attempt; time } ->
      W.byte w 5;
      int src;
      int dst;
      int seq;
      int attempt;
      int time
  | Drop { src; dst; time } ->
      W.byte w 6;
      int src;
      int dst;
      int time
  | Undeliverable { msg; src; dst; time } ->
      W.byte w 7;
      int msg;
      int src;
      int dst;
      int time
  | Rollback { pid; to_index; time } ->
      W.byte w 8;
      int pid;
      int to_index;
      int time
  | Replay { msg; src; dst; time } ->
      W.byte w 9;
      int msg;
      int src;
      int dst;
      int time
  | Verdict { checker; rdt } ->
      W.byte w 10;
      W.string_ w checker;
      W.byte w (if rdt then 1 else 0)

let short fmt = Printf.ksprintf (fun s -> raise (R.Short s)) fmt

(* Fields are read in declaration order: OCaml leaves the evaluation
   order of a record's fields unspecified, so every field is bound by a
   [let] first. *)
let read_event r : Trace.event =
  let int () = R.zigzag r in
  match R.byte r with
  | 0 ->
      let n = int () in
      let protocol = R.string_ r in
      let env = R.string_ r in
      let seed = int () in
      let mode = R.string_ r in
      Meta { n; protocol; env; seed; mode }
  | (1 | 2 | 7 | 9) as tag -> (
      let msg = int () in
      let src = int () in
      let dst = int () in
      let time = int () in
      match tag with
      | 1 -> Send { msg; src; dst; time }
      | 2 -> Deliver { msg; src; dst; time }
      | 7 -> Undeliverable { msg; src; dst; time }
      | _ -> Replay { msg; src; dst; time })
  | 3 ->
      let pid = int () in
      let time = int () in
      Internal { pid; time }
  | 4 ->
      let pid = int () in
      let index = int () in
      let kind =
        match R.byte r with
        | 0 -> Ptypes.Initial
        | 1 -> Basic
        | 2 -> Forced
        | 3 -> Final
        | k -> short "unknown checkpoint kind %d" k
      in
      let time = int () in
      let tdv =
        match R.count r with
        | 0 -> None
        | len -> Some (Array.init (len - 1) (fun _ -> int ()))
      in
      let preds = List.init (R.count r) (fun _ -> R.string_ r) in
      Ckpt { pid; index; kind; time; tdv; preds }
  | 5 ->
      let src = int () in
      let dst = int () in
      let seq = int () in
      let attempt = int () in
      let time = int () in
      Retransmit { src; dst; seq; attempt; time }
  | 6 ->
      let src = int () in
      let dst = int () in
      let time = int () in
      Drop { src; dst; time }
  | 8 ->
      let pid = int () in
      let to_index = int () in
      let time = int () in
      Rollback { pid; to_index; time }
  | 10 ->
      let checker = R.string_ r in
      let rdt =
        match R.byte r with 0 -> false | 1 -> true | b -> short "bad boolean byte %d" b
      in
      Verdict { checker; rdt }
  | t -> short "unknown event tag %d" t

(* An upper bound on an event's payload size, found without encoding
   it: a varint takes at most 10 bytes, and only strings and the TDV and
   predicate lists grow. *)
let size_bound (ev : Trace.event) =
  let str s = 10 + String.length s in
  match ev with
  | Meta { protocol; env; mode; _ } -> 21 + str protocol + str env + str mode
  | Ckpt { tdv; preds; _ } ->
      52
      + (10 * Option.fold ~none:0 ~some:Array.length tdv)
      + List.fold_left (fun acc p -> acc + str p) 0 preds
  | Verdict { checker; _ } -> 2 + str checker
  | Send _ | Deliver _ | Internal _ | Retransmit _ | Drop _ | Undeliverable _ | Rollback _
  | Replay _ ->
      51

let decode ~what read ?pos ?len s =
  let r = R.of_string ?pos ?len s in
  match read r with
  | v when R.remaining r = 0 -> Ok v
  | _ -> Error (Printf.sprintf "%d trailing bytes after the %s" (R.remaining r) what)
  | exception R.Short why -> Error why

let decode_event ?pos ?len s = decode ~what:"event" read_event ?pos ?len s
