(* Versioned, CRC-checked binary snapshots of [Rdt_check.Online] engine
   exports, installed atomically and kept in generations.

   File image:

     magic   "RDTSNAP1"                     8 bytes
     len     u32 LE                         payload length
     payload version + Online.Export.t     (varint-packed)
     crc     u32 LE                         CRC-32 of the payload

   A live session builds the image with [Cache], which re-encodes only
   the stack cells and routes added since its previous image; the bytes
   equal [encode (Online.export engine)], the reference.

   Install is write-tmp -> fsync ([write]), then rename ([publish]); the
   directory fsync that makes the rename durable is the session's, which
   covers the new WAL segment's entry with the same call.  The previous
   generation file is left in place as the fallback the loader degrades
   to when the newest file fails its checksum.  Decoding never trusts a
   byte it has not checked: wrong magic, truncated payload, bad CRC and
   codec-level garbage all come back as [Error], so the session can walk
   down the generation chain instead of crashing — or worse, restoring a
   wrong state and producing a wrong verdict. *)

module Online = Rdt_check.Online
module Export = Online.Export
module H = Rdt_pattern.History
module Codec = Rdt_obs.Codec
module W = Codec.Writer
module R = Codec.Reader

let magic = "RDTSNAP1"

let version = 1

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

(* The layout is written down once, here: [entry] and [route] encode one
   element of a section, [assemble] lays the sections out.  The full
   encode and the incremental {!Cache} both go through them. *)

let entry w (e : H.entry) =
  match e with
  | H.Send { seq; msg } ->
      W.byte w 0;
      W.varint w seq;
      W.varint w msg
  | H.Recv { seq; msg } ->
      W.byte w 1;
      W.varint w seq;
      W.varint w msg
  | H.Internal { seq } ->
      W.byte w 2;
      W.varint w seq
  | H.Ckpt { seq; index } ->
      W.byte w 3;
      W.varint w seq;
      W.varint w index

let route w msg src dst =
  W.varint w msg;
  W.varint w src;
  W.varint w dst

let header_len = String.length magic + 4

(* The whole file image into [out]: magic, payload length, payload,
   CRC.  The routes section and each stack section arrive encoded, with
   their element counts. *)
let assemble out ~n ~track_open ~events_seen ~first_violation ~rebuilds ~route_count ~routes
    ~undeliverable ~stack_count ~stack_body =
  W.clear out;
  W.string_raw out magic;
  W.u32 out 0;
  W.varint out version;
  W.varint out n;
  W.byte out (if track_open then 1 else 0);
  W.varint out events_seen;
  W.opt_varint out first_violation;
  W.varint out rebuilds;
  W.varint out route_count;
  W.append out routes;
  W.varint out (List.length undeliverable);
  List.iter (W.varint out) undeliverable;
  for pid = 0 to n - 1 do
    W.varint out (stack_count pid);
    W.append out (stack_body pid)
  done;
  let len = W.length out - header_len in
  W.set_u32 out ~pos:(String.length magic) len;
  W.u32 out (W.crc32_sub out ~pos:header_len ~len)

let encode (e : Export.t) =
  let routes = W.create () in
  List.iter (fun (msg, src, dst) -> route routes msg src dst) e.routes;
  let bodies =
    Array.map
      (fun stack ->
        let w = W.create () in
        List.iter (entry w) stack;
        w)
      e.stacks
  in
  let out = W.create () in
  assemble out ~n:e.n ~track_open:e.track_open ~events_seen:e.events_seen
    ~first_violation:e.first_violation ~rebuilds:e.rebuilds ~route_count:(List.length e.routes)
    ~routes ~undeliverable:e.undeliverable
    ~stack_count:(fun pid -> List.length e.stacks.(pid))
    ~stack_body:(fun pid -> bodies.(pid));
  W.contents out

(* ------------------------------------------------------------------ *)
(* Incremental image                                                   *)
(* ------------------------------------------------------------------ *)

module Cache = struct
  (* One process's stack section: [body] encodes [count] entries, oldest
     first — exactly the stack [top] (newest first) it was built from. *)
  type stack = { mutable top : H.entry list; mutable count : int; body : W.t }

  type t = {
    mutable owner : H.t option;  (** the history the sections describe *)
    mutable stacks : stack array;
    routes : W.t;
    mutable route_count : int;
    mutable routes_seen : int;  (** route records of [owner] consumed *)
    mutable last_msg : int;  (** largest message id in [routes] *)
    out : W.t;
  }

  let create () =
    {
      owner = None;
      stacks = [||];
      routes = W.create ();
      route_count = 0;
      routes_seen = 0;
      last_msg = min_int;
      out = W.create ();
    }

  let copy c =
    {
      c with
      stacks = Array.map (fun s -> { s with body = W.copy s.body }) c.stacks;
      routes = W.copy c.routes;
      out = W.create ();
    }

  let reset c h ~n =
    c.owner <- Some h;
    c.stacks <- Array.init n (fun _ -> { top = []; count = 0; body = W.create () });
    W.clear c.routes;
    c.route_count <- 0;
    c.routes_seen <- 0;
    c.last_msg <- min_int

  (* Cells above the cached top are new: encode only those.  When the
     cached top is no longer a tail of the stack (a rollback went below
     it), the walk reaches the bottom and the section is rebuilt; either
     way the walk has collected exactly the cells to encode, oldest
     first. *)
  let update_stack s cur =
    if cur != s.top then begin
      let rec above acc k l =
        if l == s.top then (acc, k, true)
        else match l with [] -> (acc, k, false) | e :: rest -> above (e :: acc) (k + 1) rest
      in
      let fresh, k, reachable = above [] 0 cur in
      if not reachable then begin
        W.clear s.body;
        s.count <- 0
      end;
      List.iter (entry s.body) fresh;
      s.count <- s.count + k;
      s.top <- cur
    end

  (* Routes arrive in message-id order in practice; an id that does not
     rise (a resend, or ids out of order) re-encodes the section from
     the sorted table. *)
  let update_routes c h =
    let in_order = ref true in
    H.iter_routes_from h ~from:c.routes_seen (fun msg src dst ->
        if !in_order && msg > c.last_msg then begin
          route c.routes msg src dst;
          c.route_count <- c.route_count + 1;
          c.last_msg <- msg
        end
        else in_order := false);
    c.routes_seen <- H.routes_arrived h;
    if not !in_order then begin
      W.clear c.routes;
      c.route_count <- 0;
      c.last_msg <- min_int;
      List.iter
        (fun (msg, src, dst) ->
          route c.routes msg src dst;
          c.route_count <- c.route_count + 1;
          c.last_msg <- msg)
        (H.routes h)
    end

  let image c engine =
    let h = Online.history engine and n = Online.n engine in
    (match c.owner with Some o when o == h -> () | _ -> reset c h ~n);
    Array.iteri (fun pid s -> update_stack s (H.stack_newest_first h pid)) c.stacks;
    update_routes c h;
    assemble c.out ~n ~track_open:(Online.track_open engine)
      ~events_seen:(Online.events_seen engine) ~first_violation:(Online.first_violation engine)
      ~rebuilds:(Online.rebuilds engine) ~route_count:c.route_count ~routes:c.routes
      ~undeliverable:(H.undeliverable_msgs h)
      ~stack_count:(fun pid -> c.stacks.(pid).count)
      ~stack_body:(fun pid -> c.stacks.(pid).body);
    c.out
end

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

(* Every count is checked against the bytes left before anything is
   allocated for it ({!Codec.Reader.count}). *)
let decode_payload s ~pos ~len =
  let r = R.of_string ~pos ~len s in
  let v = R.varint r in
  if v <> version then Error (Printf.sprintf "unsupported snapshot version %d" v)
  else begin
    let n = R.varint r in
    if n <= 0 || n > 10_000_000 then Error (Printf.sprintf "implausible process count %d" n)
    else begin
      let track_open = R.byte r <> 0 in
      let events_seen = R.varint r in
      let first_violation = R.opt_varint r in
      let rebuilds = R.varint r in
      let routes =
        List.init (R.count r) (fun _ ->
            let msg = R.varint r in
            let src = R.varint r in
            let dst = R.varint r in
            (msg, src, dst))
      in
      let undeliverable = List.init (R.count r) (fun _ -> R.varint r) in
      if n > R.remaining r then raise (R.Short "more stacks than bytes left");
      let stacks =
        Array.init n (fun _ ->
            List.init (R.count r) (fun _ ->
                match R.byte r with
                | 0 ->
                    let seq = R.varint r in
                    H.Send { seq; msg = R.varint r }
                | 1 ->
                    let seq = R.varint r in
                    H.Recv { seq; msg = R.varint r }
                | 2 -> H.Internal { seq = R.varint r }
                | 3 ->
                    let seq = R.varint r in
                    H.Ckpt { seq; index = R.varint r }
                | t -> raise (R.Short (Printf.sprintf "unknown entry tag %d" t))))
      in
      if R.remaining r <> 0 then
        Error (Printf.sprintf "%d trailing bytes after the export" (R.remaining r))
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

let decode s =
  if String.length s < header_len + 4 then Error "snapshot file truncated before the payload"
  else if String.sub s 0 (String.length magic) <> magic then Error "bad snapshot magic"
  else begin
    let len = R.u32 (R.of_string ~pos:(String.length magic) s) in
    if String.length s <> header_len + len + 4 then
      Error
        (Printf.sprintf "snapshot length mismatch: header says %d payload bytes, file has %d" len
           (String.length s - header_len - 4))
    else begin
      let crc_stored = R.u32 (R.of_string ~pos:(header_len + len) s) in
      let crc_actual = Codec.crc32_sub s ~pos:header_len ~len in
      if crc_stored <> crc_actual then
        Error (Printf.sprintf "snapshot CRC mismatch (stored %08x, computed %08x)" crc_stored crc_actual)
      else
        match decode_payload s ~pos:header_len ~len with
        | v -> v
        | exception R.Short what -> Error ("snapshot payload malformed: " ^ what)
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

let tmp_path ~dir ~gen = path ~dir ~gen ^ ".tmp"

let write ~dir ~gen image =
  let tmp = tmp_path ~dir ~gen in
  let fd = Io.openfile ~name:tmp tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  match
    Io.write_all ~name:"snap" ~len:(W.length image) fd (W.unsafe_bytes image);
    Io.fsync ~name:"snap" fd
  with
  | () -> Io.close_noerr fd
  | exception exn ->
      Io.close_noerr fd;
      raise exn

let publish ~dir ~gen = Io.rename ~src:(tmp_path ~dir ~gen) ~dst:(path ~dir ~gen)

let load ~dir ~gen =
  match Io.read_file ~name:"snap" (path ~dir ~gen) with
  | None -> Error (Printf.sprintf "snapshot generation %d does not exist" gen)
  | Some s -> decode s

let remove ~dir ~gen = try Sys.remove (path ~dir ~gen) with Sys_error _ -> ()
