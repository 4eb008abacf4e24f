module S = Rdt_check.Session
module W = Rdt_check.Session.Wire
module F = Rdt_check.Session.Frame
module O = Rdt_check.Online
module T = Rdt_obs.Trace
module Meter = Rdt_obs.Meter
module Tbl = Rdt_dist.Tbl
module D = Rdt_durable.Session
module Io = Rdt_durable.Io

type config = {
  socket : string;
  durable_root : string option;
  snapshot_every : int;
  max_batch : int;
  max_pending : int;
}

let default_config ~socket =
  { socket; durable_root = None; snapshot_every = 1000; max_batch = 256; max_pending = 4096 }

type mapper = { map : 'a 'b. ('a -> 'b) -> 'a list -> 'b list }

let seq_mapper = { map = List.map }

type stream = {
  name : string;
  session : S.t;
  aborter : unit -> unit;  (* durable [abort]; no-op for ephemeral *)
  pending : T.event Queue.t;
  mutable attached : conn option;
  mutable failed : (W.reject * string) option;  (* sticky rejection *)
}

and conn = {
  fd : Unix.file_descr;
  dec : F.decoder;
  out : Buffer.t;
  mutable out_off : int;
  reqs : W.request Queue.t;
  mutable stream : stream option;
  mutable greeted : bool;
  mutable closing : bool;  (* flush pending output, then close *)
  mutable dead : bool;
  mutable fd_closed : bool;
}

type t = {
  cfg : config;
  mapper : mapper;
  meter : Meter.t;
  trace : T.t;  (* debug audit log: applied events, all streams interleaved *)
  listen_fd : Unix.file_descr;
  mutable conns : conn list;
  streams : (string, stream) Hashtbl.t;
  mutable closed : bool;
}

let max_n = 1_000_000

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let unlink_quiet = Io.unlink_quiet

let create ?(mapper = seq_mapper) ?(meter = Meter.default) ?(trace = T.null) cfg =
  if cfg.max_batch < 1 || cfg.max_pending < 1 then
    invalid_arg "Server.create: max_batch and max_pending must be positive";
  (* a client vanishing mid-write must surface as EPIPE, not kill us *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> ());
  (match cfg.durable_root with
  | Some root -> (
      (* per-stream dirs are created by the durable session; the root
         (one level) is ours *)
      try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  | None -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     (* a SIGKILL'd daemon leaves a stale socket file behind *)
     unlink_quiet cfg.socket;
     Unix.bind fd (Unix.ADDR_UNIX cfg.socket);
     Unix.listen fd 64;
     Unix.set_nonblock fd
   with e ->
     Io.close_noerr fd;
     raise e);
  {
    cfg;
    mapper;
    meter;
    trace;
    listen_fd = fd;
    conns = [];
    streams = Hashtbl.create 16;
    closed = false;
  }

let close_fd c =
  if not c.fd_closed then begin
    c.fd_closed <- true;
    Io.close_noerr c.fd
  end

(* A graceful detach is a sync point; a crash teardown skips the sync. *)
let detach ?(sync = true) c =
  match c.stream with
  | Some st -> (
      c.stream <- None;
      match st.attached with
      | Some c' when c' == c ->
          st.attached <- None;
          if sync then S.sync st.session
      | _ -> ())
  | None -> ()

let streams t = Tbl.keys_sorted ~compare:String.compare t.streams

let shutdown t ~graceful =
  if not t.closed then begin
    t.closed <- true;
    List.iter
      (fun c ->
        detach ~sync:graceful c;
        close_fd c)
      t.conns;
    t.conns <- [];
    Tbl.iter_sorted ~compare:String.compare
      (fun _ st -> if graceful then S.close st.session else st.aborter ())
      t.streams;
    Hashtbl.reset t.streams;
    Io.close_noerr t.listen_fd;
    if graceful then unlink_quiet t.cfg.socket
  end

let close t = shutdown t ~graceful:true
let abort t = shutdown t ~graceful:false

(* ------------------------------------------------------------------ *)
(* Replies                                                             *)
(* ------------------------------------------------------------------ *)

let reply c resp = Buffer.add_string c.out (F.encode (W.encode_response resp))

let reject c code error =
  reply c (W.Rejected { code; error });
  c.closing <- true

let seen st = O.events_seen (S.engine st.session)

(* ------------------------------------------------------------------ *)
(* Hello: open, reattach or recover a stream                           *)
(* ------------------------------------------------------------------ *)

let valid_stream_name name =
  let ok_char = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true | _ -> false in
  String.length name >= 1
  && String.length name <= 100
  && String.for_all ok_char name
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)

let open_stream t name n =
  match Hashtbl.find_opt t.streams name with
  | Some st ->
      if st.attached <> None then Error (W.Protocol, Printf.sprintf "stream %S is attached to another client" name)
      else if O.n (S.engine st.session) <> n then
        Error
          ( W.Protocol,
            Printf.sprintf "stream %S has n=%d, hello said n=%d" name
              (O.n (S.engine st.session))
              n )
      else Ok st
  | None -> (
      let make session aborter =
        let st = { name; session; aborter; pending = Queue.create (); attached = None; failed = None } in
        Hashtbl.replace t.streams name st;
        Meter.set_gauge t.meter "serve.streams" (Hashtbl.length t.streams);
        Ok st
      in
      match t.cfg.durable_root with
      | None -> make (S.ephemeral ~n ()) (fun () -> ())
      | Some root -> (
          let dir = Filename.concat root name in
          let config = { D.snapshot_every = t.cfg.snapshot_every } in
          match D.open_ ~config ~meter:t.meter ~dir ~n ~track_open:true () with
          | ds, recovery ->
              (match recovery with
              | Some info ->
                  Format.eprintf "serve: stream %s: recovered (%a)@." name D.pp_recovery info
              | None -> ());
              make (D.checker_session ds) (fun () -> D.abort ds)
          | exception Rdt_durable.Io.Error err ->
              Error (W.Unrecoverable, Rdt_durable.Io.error_message err)
          | exception Unix.Unix_error (e, fn, arg) ->
              Error
                ( W.Unrecoverable,
                  Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e) )))

let handle_hello t c ~version ~stream:name ~n =
  if c.greeted then reject c W.Protocol "duplicate hello"
  else if version <> W.version then
    reject c W.Protocol
      (Printf.sprintf "unsupported protocol version %d (server speaks %d)" version W.version)
  else if not (valid_stream_name name) then
    reject c W.Protocol (Printf.sprintf "invalid stream name %S" name)
  else if n < 1 || n > max_n then
    reject c W.Protocol (Printf.sprintf "n=%d out of range [1, %d]" n max_n)
  else
    match open_stream t name n with
    | Error (code, error) -> reject c code error
    | Ok st ->
        c.greeted <- true;
        c.stream <- Some st;
        st.attached <- Some c;
        reply c (W.Welcome { version = W.version; stream = name; resumed = seen st })

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let eval_query t st query =
  let eng = S.engine st.session in
  let pattern_cut compute set =
    match S.pattern st.session with
    | Error e -> failwith e
    | Ok pat -> W.Cut (compute pat set)
  in
  Meter.time t.meter "serve.query" (fun () ->
      Meter.incr t.meter "serve.queries";
      match query with
      | W.Rdt_so_far -> W.Flag (O.rdt_so_far eng)
      | W.Zcycle -> W.Flag (O.zcycle eng)
      | W.Summary -> W.Stats (O.summary eng)
      | W.Trackable (a, b) -> W.Flag (O.trackable eng a b)
      | W.Min_gcp set -> pattern_cut Rdt_core.Min_gcp.minimum_of_set set
      | W.Max_gcp set -> pattern_cut Rdt_core.Min_gcp.maximum_of_set set)

(* ------------------------------------------------------------------ *)
(* Frame processing                                                    *)
(* ------------------------------------------------------------------ *)

(* Process a connection's parsed frames in order.  [`Defer] leaves the
   frame queued: queries, syncs and byes act only once every event the
   client previously sent has been applied, which linearizes answers
   against the client's own writes. *)
let handle_request t c req =
  match req with
  | W.Hello { version; stream; n } ->
      handle_hello t c ~version ~stream ~n;
      `Done
  | _ when not c.greeted ->
      reject c W.Protocol "first frame must be hello";
      `Done
  | _ -> (
      let st = Option.get c.stream in
      match st.failed with
      | Some (code, error) ->
          reject c code error;
          `Done
      | None -> (
          match req with
          | W.Hello _ -> assert false
          | W.Events evs ->
              List.iter (fun ev -> Queue.add ev st.pending) evs;
              `Done
          | W.Query { id; query } ->
              if not (Queue.is_empty st.pending) then `Defer
              else begin
                (match eval_query t st query with
                | answer -> reply c (W.Answer { id; answer })
                | exception (Failure e | Invalid_argument e) ->
                    reply c (W.Failed { id; error = e }));
                `Done
              end
          | W.Sync ->
              if not (Queue.is_empty st.pending) then `Defer
              else begin
                S.sync st.session;
                reply c (W.Ack { seen = seen st });
                `Done
              end
          | W.Bye ->
              if not (Queue.is_empty st.pending) then `Defer
              else begin
                S.close st.session; (* a sync point, before the goodbye *)
                let eng = S.engine st.session in
                reply c
                  (W.Goodbye
                     {
                       seen = seen st;
                       summary = O.summary eng;
                       orphans = O.orphan_messages eng;
                     });
                st.attached <- None;
                c.stream <- None;
                Hashtbl.remove t.streams st.name;
                Meter.set_gauge t.meter "serve.streams" (Hashtbl.length t.streams);
                c.closing <- true;
                `Done
              end))

let process_conn t c =
  let work = ref 0 in
  let rec go () =
    if (not c.dead) && not c.closing then
      match Queue.peek_opt c.reqs with
      | None -> ()
      | Some req -> (
          match handle_request t c req with
          | `Done ->
              ignore (Queue.pop c.reqs);
              incr work;
              go ()
          | `Defer -> ())
  in
  go ();
  !work

(* ------------------------------------------------------------------ *)
(* Apply phase                                                         *)
(* ------------------------------------------------------------------ *)

let take_batch st limit =
  let rec go acc k =
    if k = 0 || Queue.is_empty st.pending then List.rev acc
    else go (Queue.pop st.pending :: acc) (k - 1)
  in
  go [] limit

(* One bounded batch per busy stream, all busy streams fanned out over
   the mapper.  Sessions are stream-private, so parallel application is
   race-free; the meter is atomic. *)
let apply_phase t =
  let busy =
    List.filter_map
      (fun (_, st) ->
        if st.failed = None && not (Queue.is_empty st.pending) then
          Some (st, take_batch st t.cfg.max_batch)
        else None)
      (Tbl.bindings_sorted ~compare:String.compare t.streams)
  in
  if busy = [] then 0
  else begin
    let results =
      Meter.time t.meter "serve.apply" (fun () ->
          t.mapper.map (fun (st, batch) -> S.feed st.session batch) busy)
    in
    let applied = ref 0 in
    List.iter2
      (fun (st, batch) result ->
        Meter.incr t.meter "serve.batches";
        match result with
        | Ok () -> (
            applied := !applied + List.length batch;
            List.iter (T.emit t.trace) batch;
            match st.attached with
            | Some c when not c.dead -> reply c (W.Ack { seen = seen st })
            | _ -> ())
        | Error error -> (
            st.failed <- Some (W.Inconsistent, error);
            Queue.clear st.pending;
            match st.attached with
            | Some c when not c.dead -> reject c W.Inconsistent error
            | _ -> ()))
      busy results;
    Meter.add t.meter "serve.events" !applied;
    !applied
  end

(* ------------------------------------------------------------------ *)
(* I/O                                                                 *)
(* ------------------------------------------------------------------ *)

let read_chunk = Bytes.create 65536

let read_conn t c =
  match Io.recv c.fd read_chunk 0 (Bytes.length read_chunk) with
  | 0 ->
      c.dead <- true;
      0
  | nread -> (
      F.feed c.dec read_chunk ~off:0 ~len:nread;
      let frames = ref 0 in
      let rec drain () =
        match F.next c.dec with
        | Ok None -> ()
        | Ok (Some payload) -> (
            match W.decode_request payload with
            | Ok req ->
                Queue.add req c.reqs;
                incr frames;
                drain ()
            | Error e -> reject c W.Protocol (Printf.sprintf "bad request: %s" e))
        | Error e -> reject c W.Protocol (Printf.sprintf "bad frame: %s" e)
      in
      drain ();
      ignore t;
      !frames)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> 0
  | exception Unix.Unix_error _ ->
      c.dead <- true;
      0

let flush_conn c =
  let total = Buffer.length c.out in
  if total > c.out_off then begin
    match Io.send_substring c.fd (Buffer.contents c.out) c.out_off (total - c.out_off) with
    | n ->
        c.out_off <- c.out_off + n;
        if c.out_off >= Buffer.length c.out then begin
          Buffer.clear c.out;
          c.out_off <- 0
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> c.dead <- true
  end

let accept_loop t =
  let accepted = ref 0 in
  let rec go () =
    match Unix.accept ~cloexec:true t.listen_fd with
    | fd, _ ->
        Unix.set_nonblock fd;
        let c =
          {
            fd;
            dec = F.decoder ();
            out = Buffer.create 1024;
            out_off = 0;
            reqs = Queue.create ();
            stream = None;
            greeted = false;
            closing = false;
            dead = false;
            fd_closed = false;
          }
        in
        t.conns <- c :: t.conns;
        Meter.incr t.meter "serve.connections";
        incr accepted;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  go ();
  !accepted

let step ?(timeout = 0.) t =
  if t.closed then 0
  else begin
    let work = ref 0 in
    (* backpressure: stop reading a connection whose stream's pending
       queue is over the bound — kernel socket buffers fill and the
       client blocks.  The queue can overshoot by at most one frame's
       batch; no frame is ever dropped. *)
    let wants_read c =
      (not c.dead) && (not c.closing)
      &&
      match c.stream with
      | Some st -> Queue.length st.pending < t.cfg.max_pending
      | None -> true
    in
    let rfds = t.listen_fd :: List.filter_map (fun c -> if wants_read c then Some c.fd else None) t.conns in
    let wfds =
      List.filter_map
        (fun c -> if (not c.fd_closed) && Buffer.length c.out > c.out_off then Some c.fd else None)
        t.conns
    in
    (* queued events are work: poll instead of waiting out the tick,
       since [max_batch] already bounds each apply *)
    let timeout =
      if
        List.exists
          (fun (_, st) -> not (Queue.is_empty st.pending))
          (Tbl.bindings_sorted ~compare:String.compare t.streams)
      then 0.
      else timeout
    in
    let readable, _, _ =
      match Unix.select rfds wfds [] timeout with
      | r -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if List.memq t.listen_fd readable then work := !work + accept_loop t;
    List.iter
      (fun c ->
        if (not c.fd_closed) && List.memq c.fd readable then work := !work + read_conn t c)
      t.conns;
    List.iter (fun c -> work := !work + process_conn t c) t.conns;
    work := !work + apply_phase t;
    (* the apply just unblocked deferred queries/syncs/byes *)
    List.iter (fun c -> work := !work + process_conn t c) t.conns;
    List.iter (fun c -> if not c.fd_closed then flush_conn c) t.conns;
    let depth =
      List.fold_left
        (fun acc (_, st) -> max acc (Queue.length st.pending))
        0
        (Tbl.bindings_sorted ~compare:String.compare t.streams)
    in
    Meter.set_gauge t.meter "serve.queue_depth" depth;
    (* reap: EOF/error, or gracefully closing with output flushed *)
    let reaped, live =
      List.partition
        (fun c -> c.dead || (c.closing && Buffer.length c.out <= c.out_off))
        t.conns
    in
    List.iter
      (fun c ->
        detach c;
        close_fd c)
      reaped;
    t.conns <- live;
    !work
  end

let run ~stop t =
  while (not (stop ())) && not t.closed do
    ignore (step ~timeout:0.05 t)
  done
