(* Append-only write-ahead log of observed trace events, one segment
   per snapshot generation.

   [wal-<gen>.log] holds the events observed while generation [gen] was
   the newest installed snapshot (gen 0: since the fresh engine).  Each
   segment starts with a header record naming the format version, the
   generation, the number of events already covered by that snapshot
   and the engine geometry, so a segment is self-describing and replay
   never guesses.

   Every record — header and event alike — is framed

     u32 LE   payload length
     payload  (header: varint-packed; events: see below)
     u32 LE   CRC-32 of the payload

   An event payload of a version-2 segment is [Codec.encode_event]'s
   record, the same one the serve wire carries.  Version-1 segments, whose
   event payloads are Trace JSONL lines, are still read; nothing appends
   to them any more.

   A crash can tear the last frame; the reader stops at the longest
   valid prefix and reports the tear, and the writer truncates it away
   when the segment is reopened for append.  A damaged *header* is
   different: nothing after it can be trusted, so the whole segment is
   an error and recovery falls back a generation. *)

module Trace = Rdt_obs.Trace
module Codec = Rdt_obs.Codec
module W = Codec.Writer
module R = Codec.Reader

let version = 2

(* Frames beyond this are treated as torn garbage rather than attempted:
   a single trace event is tiny, so a huge length field can only be a
   corrupt frame header. *)
let max_frame = 1 lsl 20

type header = { gen : int; base_events : int; n : int; track_open : bool }

let oversized ev =
  if Codec.size_bound ev <= max_frame then None
  else begin
    let w = W.create () in
    Codec.encode_event w ev;
    if W.length w > max_frame then Some (W.length w) else None
  end

(* Frame [encode x] straight into [buf]: a length placeholder, the
   payload, then the length patched in and the CRC appended.  Returns
   the framed size. *)
let frame_into buf encode x =
  let start = W.length buf in
  W.u32 buf 0;
  encode buf x;
  let len = W.length buf - start - 4 in
  W.set_u32 buf ~pos:start len;
  W.u32 buf (W.crc32_sub buf ~pos:(start + 4) ~len);
  len + 8

let add_record buf ev = frame_into buf Codec.encode_event ev

(* ------------------------------------------------------------------ *)
(* Header record                                                       *)
(* ------------------------------------------------------------------ *)

let encode_header w h =
  W.varint w version;
  W.varint w h.gen;
  W.varint w h.base_events;
  W.varint w h.n;
  W.byte w (if h.track_open then 1 else 0)

let decode_header s ~pos ~len =
  match
    let r = R.of_string ~pos ~len s in
    let v = R.varint r in
    if v <> 1 && v <> version then Error (Printf.sprintf "unsupported WAL version %d" v)
    else begin
      let gen = R.varint r in
      let base_events = R.varint r in
      let n = R.varint r in
      let track_open = R.byte r <> 0 in
      if R.remaining r <> 0 then Error "trailing bytes in WAL header"
      else Ok (v, { gen; base_events; n; track_open })
    end
  with
  | v -> v
  | exception R.Short what -> Error ("WAL header malformed: " ^ what)

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let filename ~gen = Printf.sprintf "wal-%d.log" gen

let path ~dir ~gen = Filename.concat dir (filename ~gen)

let parse_filename name =
  match String.length name with
  | l when l > 8 && String.sub name 0 4 = "wal-" && String.sub name (l - 4) 4 = ".log" ->
      int_of_string_opt (String.sub name 4 (l - 8))
  | _ -> None

let segments ~dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map parse_filename
  |> List.sort Int.compare

let remove ~dir ~gen = try Sys.remove (path ~dir ~gen) with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

type read_result = {
  header : header;
  version : int;
  events : Trace.event list;
  valid_len : int;  (** byte length of the longest valid prefix *)
  torn : string option;  (** why reading stopped before end-of-file, if it did *)
}

(* Pull one frame; [Ok None] is a clean end-of-file, [Ok (Some (pos,
   len))] the CRC-checked payload's place in the segment, [Error] a
   tear. *)
let read_frame s r =
  if R.remaining r = 0 then Ok None
  else
    match
      let len = R.u32 r in
      if len > max_frame then Error (Printf.sprintf "frame length %d exceeds limit" len)
      else if len + 4 > R.remaining r then raise (R.Short "frame")
      else begin
        let pos = R.pos r in
        let crc = R.u32 (R.of_string ~pos:(pos + len) ~len:4 s) in
        if crc <> Codec.crc32_sub s ~pos ~len then Error "frame CRC mismatch"
        else begin
          R.skip r (len + 4);
          Ok (Some (pos, len))
        end
      end
    with
    | v -> v
    | exception R.Short _ -> Error "frame torn at end of segment"

let decode_v1 = Trace.decode_sub

let decode_v2 s ~pos ~len = Codec.decode_event ~pos ~len s

let read ~dir ~gen =
  match Io.read_file ~name:"wal" (path ~dir ~gen) with
  | None -> Error (Printf.sprintf "WAL segment %d does not exist" gen)
  | Some s -> (
      let r = R.of_string s in
      match read_frame s r with
      | Ok None -> Error (Printf.sprintf "WAL segment %d is empty" gen)
      | Error why -> Error (Printf.sprintf "WAL segment %d header unreadable: %s" gen why)
      | Ok (Some (pos, len)) -> (
          match decode_header s ~pos ~len with
          | Error why -> Error (Printf.sprintf "WAL segment %d: %s" gen why)
          | Ok (version, header) ->
              let decode = if version = 1 then decode_v1 else decode_v2 in
              let events = ref [] in
              let valid_len = ref (R.pos r) in
              let torn = ref None in
              let rec loop () =
                match read_frame s r with
                | Ok None -> ()
                | Error why -> torn := Some why
                | Ok (Some (pos, len)) -> (
                    match decode s ~pos ~len with
                    | Error why ->
                        (* CRC passed but the payload is not an event:
                           not a torn write, still untrustworthy — stop
                           here exactly as for a tear. *)
                        torn := Some ("undecodable event record: " ^ why)
                    | Ok ev ->
                        events := ev :: !events;
                        valid_len := R.pos r;
                        loop ())
              in
              loop ();
              Ok
                {
                  header;
                  version;
                  events = List.rev !events;
                  valid_len = !valid_len;
                  torn = !torn;
                }))

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

type writer = {
  fd : Unix.file_descr;
  wgen : int;
  pending : W.t;  (** framed records not yet written to the fd *)
  mutable unsynced : int;  (** event-record bytes appended since the last fsync *)
  mutable closed : bool;
}

(* The pending buffer goes to the kernel once it holds this many bytes of
   framed records: a process kill loses less than this, and a write
   carries about 170 records of a typical stream. *)
let handoff = 4096

let gen w = w.wgen

let writer fd g = { fd; wgen = g; pending = W.create (); unsynced = 0; closed = false }

let flush w =
  let len = W.length w.pending in
  if len > 0 then begin
    (* emptied first: after a failed write nothing is written twice *)
    W.clear w.pending;
    Io.write_all ~name:"wal" ~len w.fd (W.unsafe_bytes w.pending)
  end

(* The header goes to the kernel here but is made durable by the
   segment's first fsync, and its directory entry by the caller's next
   directory fsync (DESIGN.md § Durability).  Until then no event of the
   segment is durable either, and recovery drops a header-torn last
   segment. *)
let create ~dir ~gen:g ~header:h =
  let p = path ~dir ~gen:g in
  let fd = Io.openfile ~name:p p [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let w = writer fd g in
  (try
     ignore (frame_into w.pending encode_header { h with gen = g });
     flush w
   with exn ->
     Io.close_noerr fd;
     raise exn);
  w

(* Reopen an existing segment for append, discarding a torn tail found
   by {!read}. *)
let reopen ~dir ~gen:g ~valid_len =
  let p = path ~dir ~gen:g in
  let fd = Io.openfile ~name:p p [ Unix.O_WRONLY ] 0o644 in
  (try
     Io.ftruncate ~name:p fd valid_len;
     ignore (Unix.lseek fd valid_len Unix.SEEK_SET)
   with exn ->
     Io.close_noerr fd;
     raise exn);
  writer fd g

let append w ev =
  (match oversized ev with
  | Some len ->
      invalid_arg (Printf.sprintf "Wal.append: %d-byte event record exceeds max_frame" len)
  | None -> ());
  w.unsynced <- w.unsynced + add_record w.pending ev;
  if W.length w.pending >= handoff then flush w

let sync w =
  flush w;
  let bytes = w.unsynced in
  if bytes > 0 then begin
    Io.fsync ~name:"wal" w.fd;
    w.unsynced <- 0
  end;
  bytes

let close w =
  if not w.closed then begin
    w.closed <- true;
    (try ignore (sync w : int)
     with exn ->
       Io.close_noerr w.fd;
       raise exn);
    Io.close_noerr w.fd
  end

let abort w =
  if not w.closed then begin
    w.closed <- true;
    Io.close_noerr w.fd
  end
