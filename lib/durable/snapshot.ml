(* Versioned, CRC-checked binary snapshots of [Rdt_check.Online] engine
   exports, installed atomically and kept in generations.

   File image:

     magic   "RDTSNAP1"                     8 bytes
     len     u32 LE                         payload length
     payload version + Online.Export.t     (varint-packed)
     crc     u32 LE                         CRC-32 of the payload

   Install is write-tmp -> fsync -> rename -> fsync(dir); the previous
   generation file is left in place as the fallback the loader degrades
   to when the newest file fails its checksum.  Decoding never trusts a
   byte it has not checked: wrong magic, truncated payload, bad CRC and
   codec-level garbage all come back as [Error], so the session can walk
   down the generation chain instead of crashing — or worse, restoring a
   wrong state and producing a wrong verdict. *)

module Export = Rdt_check.Online.Export
module H = Rdt_pattern.History

let magic = "RDTSNAP1"

let version = 1

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let encode_payload (e : Export.t) =
  let w = Codec.Writer.create () in
  Codec.Writer.varint w version;
  Codec.Writer.varint w e.n;
  Codec.Writer.byte w (if e.track_open then 1 else 0);
  Codec.Writer.varint w e.events_seen;
  Codec.Writer.opt_varint w e.first_violation;
  Codec.Writer.varint w e.rebuilds;
  Codec.Writer.varint w (List.length e.routes);
  List.iter
    (fun (msg, src, dst) ->
      Codec.Writer.varint w msg;
      Codec.Writer.varint w src;
      Codec.Writer.varint w dst)
    e.routes;
  Codec.Writer.varint w (List.length e.undeliverable);
  List.iter (Codec.Writer.varint w) e.undeliverable;
  Array.iter
    (fun stack ->
      Codec.Writer.varint w (List.length stack);
      List.iter
        (fun (entry : H.entry) ->
          match entry with
          | H.Send { seq; msg } ->
              Codec.Writer.byte w 0;
              Codec.Writer.varint w seq;
              Codec.Writer.varint w msg
          | H.Recv { seq; msg } ->
              Codec.Writer.byte w 1;
              Codec.Writer.varint w seq;
              Codec.Writer.varint w msg
          | H.Internal { seq } ->
              Codec.Writer.byte w 2;
              Codec.Writer.varint w seq
          | H.Ckpt { seq; index } ->
              Codec.Writer.byte w 3;
              Codec.Writer.varint w seq;
              Codec.Writer.varint w index)
        stack)
    e.stacks;
  Codec.Writer.contents w

let decode_payload s =
  let r = Codec.Reader.of_string s in
  let v = Codec.Reader.varint r in
  if v <> version then Error (Printf.sprintf "unsupported snapshot version %d" v)
  else begin
    let n = Codec.Reader.varint r in
    if n <= 0 || n > 10_000_000 then Error (Printf.sprintf "implausible process count %d" n)
    else begin
      let track_open = Codec.Reader.byte r <> 0 in
      let events_seen = Codec.Reader.varint r in
      let first_violation = Codec.Reader.opt_varint r in
      let rebuilds = Codec.Reader.varint r in
      let routes =
        List.init (Codec.Reader.varint r) (fun _ ->
            let msg = Codec.Reader.varint r in
            let src = Codec.Reader.varint r in
            let dst = Codec.Reader.varint r in
            (msg, src, dst))
      in
      let undeliverable = List.init (Codec.Reader.varint r) (fun _ -> Codec.Reader.varint r) in
      let stacks =
        Array.init n (fun _ ->
            List.init (Codec.Reader.varint r) (fun _ ->
                match Codec.Reader.byte r with
                | 0 ->
                    let seq = Codec.Reader.varint r in
                    H.Send { seq; msg = Codec.Reader.varint r }
                | 1 ->
                    let seq = Codec.Reader.varint r in
                    H.Recv { seq; msg = Codec.Reader.varint r }
                | 2 -> H.Internal { seq = Codec.Reader.varint r }
                | 3 ->
                    let seq = Codec.Reader.varint r in
                    H.Ckpt { seq; index = Codec.Reader.varint r }
                | t -> raise (Codec.Reader.Short (Printf.sprintf "unknown entry tag %d" t))))
      in
      if Codec.Reader.remaining r <> 0 then
        Error (Printf.sprintf "%d trailing bytes after the export" (Codec.Reader.remaining r))
      else
        Ok
          {
            Export.n;
            track_open;
            events_seen;
            first_violation;
            rebuilds;
            stacks;
            routes;
            undeliverable;
          }
    end
  end

let encode e =
  let payload = encode_payload e in
  let b = Buffer.create (String.length payload + 16) in
  Buffer.add_string b magic;
  let len = Codec.Writer.create () in
  Codec.Writer.u32 len (String.length payload);
  Buffer.add_string b (Codec.Writer.contents len);
  Buffer.add_string b payload;
  let crc = Codec.Writer.create () in
  Codec.Writer.u32 crc (Codec.crc32 payload);
  Buffer.add_string b (Codec.Writer.contents crc);
  Buffer.contents b

let decode s =
  let header = String.length magic + 4 in
  if String.length s < header + 4 then Error "snapshot file truncated before the payload"
  else if String.sub s 0 (String.length magic) <> magic then Error "bad snapshot magic"
  else begin
    let r = Codec.Reader.of_string ~pos:(String.length magic) s in
    let len = Codec.Reader.u32 r in
    if String.length s <> header + len + 4 then
      Error
        (Printf.sprintf "snapshot length mismatch: header says %d payload bytes, file has %d" len
           (String.length s - header - 4))
    else begin
      let crc_stored = Codec.Reader.of_string ~pos:(header + len) s |> Codec.Reader.u32 in
      let crc_actual = Codec.crc32_sub s ~pos:header ~len in
      if crc_stored <> crc_actual then
        Error (Printf.sprintf "snapshot CRC mismatch (stored %08x, computed %08x)" crc_stored crc_actual)
      else
        match decode_payload (String.sub s header len) with
        | v -> v
        | exception Codec.Reader.Short what -> Error ("snapshot payload malformed: " ^ what)
    end
  end

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let filename ~gen = Printf.sprintf "snap-%d.bin" gen

let path ~dir ~gen = Filename.concat dir (filename ~gen)

let parse_filename name =
  match String.length name with
  | l when l > 9 && String.sub name 0 5 = "snap-" && String.sub name (l - 4) 4 = ".bin" ->
      int_of_string_opt (String.sub name 5 (l - 9))
  | _ -> None

let generations ~dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map parse_filename
  |> List.sort (fun a b -> Int.compare b a)

let install ~dir ~gen e =
  let final = path ~dir ~gen in
  let tmp = final ^ ".tmp" in
  let fd = Io.openfile ~name:tmp tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  (match
     Io.write_all ~name:"snap" fd (Bytes.of_string (encode e));
     Io.fsync ~name:"snap" fd
   with
  | () -> Io.close_noerr fd
  | exception exn ->
      Io.close_noerr fd;
      raise exn);
  Io.rename ~src:tmp ~dst:final;
  Io.fsync_dir dir

let load ~dir ~gen =
  match Io.read_file ~name:"snap" (path ~dir ~gen) with
  | None -> Error (Printf.sprintf "snapshot generation %d does not exist" gen)
  | Some s -> decode s

let remove ~dir ~gen = try Sys.remove (path ~dir ~gen) with Sys_error _ -> ()
