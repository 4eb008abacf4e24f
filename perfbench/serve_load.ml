(* The two serve workloads, their load generator and the daemon they
   drive.

   serve-ingest: closed loop, one process, one thread, two connections
   with one stream each.  128-event frames are sent as [rdtsim feed]
   sends them: send a frame, drain the acks that have arrived, repeat;
   then [Sync] and [Bye].

   serve-query: open loop on one connection.  16-event frames are
   offered at a fixed rate; after every [query_every] events the client
   also asks [rdt-so-far], [trackable] (a recent cross-process pair),
   [min-gcp] and [max-gcp] (a recent checkpoint set).  Every latency is
   timed from the request's due time, so a stall also delays the
   requests queued behind it.

   The end-to-end runs drive the shipped [rdtsim serve --jobs 1]; the
   traced run hosts the same server in a child process ([host]) that
   times every step of [Server.run]. *)

module T = Rdt_obs.Trace
module O = Rdt_check.Online
module W = Rdt_check.Session.Wire
module F = Rdt_check.Session.Frame
module Client = Rdt_serve.Client
module Server = Rdt_serve.Server

let now = Rdt_obs.Meter.now
let ingest_frame = 128
let query_frame = 16

(* The first [k] elements of a list and the rest. *)
let split_at k l =
  let rec go k acc = function
    | x :: rest when k > 0 -> go (k - 1) (x :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  go k [] l

let rec chunks k = function
  | [] -> []
  | l ->
      let c, rest = split_at k l in
      c :: chunks k rest

(* A stream split into frames of at most [k] events, with each frame's
   cumulative end.  Frames never straddle an epoch end (a cumulative
   event count), so every epoch end is a frame end. *)
type frames = { frames : T.event list array; ends : int array }

let framed k events ~epoch_ends =
  let rec cut from evs = function
    | [] -> []
    | e :: rest ->
        let epoch, evs = split_at (e - from) evs in
        chunks k epoch @ cut e evs rest
  in
  let frames = Array.of_list (cut 0 events epoch_ends) in
  let ends = Array.make (Array.length frames) 0 in
  Array.iteri (fun i f -> ends.(i) <- (if i = 0 then 0 else ends.(i - 1)) + List.length f) frames;
  { frames; ends }

(* ------------------------------------------------------------------ *)
(* The query plan                                                      *)
(* ------------------------------------------------------------------ *)

(* One query round, asked right after the frame that ends an epoch of
   the stitched stream (at [after] events): a set of two processes'
   newest checkpoints in that prefix, and the oracle's answers computed
   on [Replay.rebuild] of the same prefix. *)
type round = {
  frame : int;
  after : int;
  set : Rdt_pattern.Types.ckpt_id list;
  expected : (int array option * int array option) Lazy.t;
}

let plan (f : frames) epoch_ends =
  let last = Array.make Inputs.n 0 in
  let prefix = ref [] and rounds = ref [] in
  Array.iteri
    (fun i frame ->
      List.iter
        (fun ev ->
          prefix := ev :: !prefix;
          match ev with T.Ckpt { pid; index; _ } -> last.(pid) <- index | _ -> ())
        frame;
      if List.mem f.ends.(i) epoch_ends then begin
        let k = List.length !rounds in
        let p = k mod Inputs.n in
        let q = (p + 1 + (k * 7 mod (Inputs.n - 1))) mod Inputs.n in
        let set = [ (p, last.(p)); (q, last.(q)) ] in
        let events = List.rev !prefix in
        let expected =
          lazy
            (match Rdt_obs.Replay.rebuild events with
            | Ok pat ->
                (Rdt_core.Min_gcp.minimum_of_set pat set, Rdt_core.Min_gcp.maximum_of_set pat set)
            | Error e -> raise (Report.Gate ("serve-query: oracle cannot rebuild a prefix: " ^ e)))
        in
        rounds := { frame = i; after = f.ends.(i); set; expected } :: !rounds
      end)
    f.frames;
  Array.of_list (List.rev !rounds)

(* ------------------------------------------------------------------ *)
(* Daemons                                                             *)
(* ------------------------------------------------------------------ *)

type daemon_kind = Binary of string | Hosted of string  (* stats file *)

let start_daemon kind ~socket =
  match kind with
  | Binary rdtsim -> Daemon.start_binary ~rdtsim ~socket
  | Hosted stats ->
      Daemon.spawn ~socket [| Sys.executable_name; "--host-daemon"; socket; "--stats"; stats |]

(* The hosted daemon: the CLI's [Server.create] config on one domain,
   driven by [Server.run] with its default tick.  [run] consults [stop]
   once per step, so consecutive calls bracket each step; at each call
   the library's own meter gives the queue depth left by the previous
   step and the cumulative apply/query time and counts. *)
let host ~socket ~stats =
  let stop_flag = ref false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop_flag := true));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop_flag := true));
  let server = Server.create ~mapper:Server.seq_mapper (Server.default_config ~socket) in
  let marks = ref [] in
  let stop () =
    let t = now () in
    let _, apply = Report.meter_span "serve.apply" and _, query = Report.meter_span "serve.query" in
    marks :=
      ( t,
        Report.meter_count "gauge:serve.queue_depth",
        apply,
        query,
        Report.meter_count "serve.batches",
        Report.meter_count "serve.queries" )
      :: !marks;
    !stop_flag
  in
  Server.run ~stop server;
  Server.close server;
  Out_channel.with_open_text stats (fun oc ->
      List.iter
        (fun (t, depth, apply, query, batches, queries) ->
          Printf.fprintf oc "%.6f %d %.9f %.9f %d %d\n" t depth apply query batches queries)
        (List.rev !marks))

(* One step of the hosted daemon, as read back by the parent. *)
type step = {
  t0 : float;
  t1 : float;
  depth : int;  (** pending events at the start of the step *)
  apply : float;
  query : float;
  batches : int;
  queries : int;
}

let read_steps file =
  let marks =
    In_channel.with_open_text file In_channel.input_lines
    |> List.map (fun l -> Scanf.sscanf l "%f %d %f %f %d %d" (fun a b c d e f -> (a, b, c, d, e, f)))
    |> Array.of_list
  in
  List.init
    (max 0 (Array.length marks - 1))
    (fun k ->
      let t0, depth, a0, q0, b0, n0 = marks.(k) and t1, _, a1, q1, b1, n1 = marks.(k + 1) in
      { t0; t1; depth; apply = a1 -. a0; query = q1 -. q0; batches = b1 - b0; queries = n1 - n0 })

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

exception Transport of string

let send spans ?req c what tally req_ =
  Span.with_ spans ?req "client.send" (fun () ->
      match Client.send c req_ with
      | () -> Stats.attempt tally ~ok:true
      | exception Unix.Unix_error (e, _, _) ->
          Stats.attempt tally ~ok:false;
          raise (Transport (Printf.sprintf "%s: %s" what (Unix.error_message e))))

let poll spans c =
  Span.with_ spans "client.poll" (fun () ->
      match Client.poll c with
      | rs -> rs
      | exception (Failure e | Unix.Unix_error (_, e, _)) -> raise (Transport e))

let open_stream spans c tally ~stream =
  send spans c "hello" tally (W.Hello { version = W.version; stream; n = Inputs.n });
  match Client.recv c with
  | Ok (W.Welcome { resumed = 0; _ }) -> ()
  | Ok (W.Welcome _) -> raise (Transport ("stream " ^ stream ^ " was not fresh"))
  | Ok _ -> raise (Transport "unexpected reply to hello")
  | Error e -> raise (Transport e)

(* ------------------------------------------------------------------ *)
(* serve-ingest                                                        *)
(* ------------------------------------------------------------------ *)

type stream = {
  c : Client.t;
  f : frames;
  sent : float array;
  lat : float array;  (** each frame's send-to-ack latency *)
  mutable acked : int;  (** frames covered by an ack so far *)
  mutable goodbye : O.summary option;
}

type ingest_rep = {
  samples : float list;  (** frame latencies, stream by stream *)
  events : int;
  wall : float;
  t_begin : float;
  t_end : float;
  summaries : O.summary list;
}

let connect ~socket =
  try Client.connect ~socket with Unix.Unix_error (e, _, _) -> raise (Transport (Unix.error_message e))

let ingest_rep ?(spans = Span.off) ~socket ~rep (streams : frames array) tally =
  let conns =
    Array.mapi
      (fun i f ->
        let c = connect ~socket in
        open_stream spans c tally ~stream:(Printf.sprintf "ingest-%d-%d" rep i);
        let nframes = Array.length f.frames in
        { c; f; sent = Array.make nframes 0.; lat = Array.make nframes 0.; acked = 0; goodbye = None })
      streams
  in
  let handle s t = function
    | W.Ack { seen } ->
        while s.acked < Array.length s.f.ends && s.f.ends.(s.acked) <= seen do
          s.lat.(s.acked) <- t -. s.sent.(s.acked);
          s.acked <- s.acked + 1
        done
    | W.Goodbye { summary; orphans = []; _ } -> s.goodbye <- Some summary
    | W.Goodbye _ -> raise (Report.Gate "serve-ingest: stream ended mid-rollback-cascade")
    | W.Rejected { error; _ } ->
        Stats.attempt tally ~ok:false;
        raise (Transport ("rejected: " ^ error))
    | _ -> raise (Transport "unexpected response")
  in
  let drain () =
    Array.fold_left
      (fun got s ->
        let rs = poll spans s.c in
        let t = now () in
        List.iter (handle s t) rs;
        got || rs <> [])
      false conns
  in
  let t_begin = now () in
  let nframes = Array.fold_left (fun acc s -> max acc (Array.length s.f.frames)) 0 conns in
  for k = 0 to nframes - 1 do
    Array.iter
      (fun s ->
        if k < Array.length s.f.frames then
          Span.with_ spans ~req:((rep * 1_000_000) + k) "frame" (fun () ->
              let req = W.Events s.f.frames.(k) in
              if spans.Span.on then
                Span.with_ spans "wire.encode" (fun () -> ignore (F.encode (W.encode_request req)));
              s.sent.(k) <- now ();
              send spans s.c "events" tally req;
              ignore (drain ())))
      conns
  done;
  Array.iter (fun s -> send spans s.c "sync" tally W.Sync) conns;
  Array.iter (fun s -> send spans s.c "bye" tally W.Bye) conns;
  let deadline = now () +. 60. in
  while Array.exists (fun s -> s.goodbye = None) conns do
    if not (drain ()) then begin
      if Array.exists (fun s -> Client.eof s.c && s.goodbye = None) conns then
        raise (Transport "daemon closed a connection before goodbye");
      if now () > deadline then raise (Transport "no goodbye within 60 s");
      Unix.sleepf 0.0002
    end
  done;
  let t_end = now () in
  Array.iter (fun s -> Client.close s.c) conns;
  Array.iter
    (fun s ->
      let n = Array.length s.f.frames in
      Report.gate (s.acked = n) "serve-ingest: %d of %d frames never acked" (n - s.acked) n)
    conns;
  {
    (* in stream and frame order, the same in every repetition *)
    samples = List.concat_map (fun s -> Array.to_list s.lat) (Array.to_list conns);
    events = Array.fold_left (fun acc s -> acc + s.f.ends.(Array.length s.f.ends - 1)) 0 conns;
    wall = t_end -. t_begin;
    t_begin;
    t_end;
    summaries = Array.to_list (Array.map (fun s -> Option.get s.goodbye) conns);
  }

(* ------------------------------------------------------------------ *)
(* serve-query                                                         *)
(* ------------------------------------------------------------------ *)

type query_rep = {
  gcp : float list;
  acks : float list;
  flags : float list;
  late : float list;
  acked : int;
  wall : float;
  q_begin : float;
  q_end : float;
  answers : (int * int array option option * int array option option) list;
      (** round, then the min-gcp and max-gcp answers ([None]: not answered) *)
  failures : string list;  (** [Failed] answers *)
  summary : O.summary;
}

let query_rep ?(spans = Span.off) ~socket ~rep ~rate (f : frames) (rounds : round array) tally =
  let c = connect ~socket in
  open_stream spans c tally ~stream:(Printf.sprintf "query-%d" rep);
  let nframes = Array.length f.frames in
  let start = now () +. 0.001 in
  let due k = start +. (float_of_int (if k = 0 then 0 else f.ends.(k - 1)) /. rate) in
  (* query ids: round r asks ids 4r (rdt-so-far), 4r+1 (trackable),
     4r+2 (min-gcp), 4r+3 (max-gcp) *)
  let round_due = Array.make (Array.length rounds) 0. in
  let mins = Array.make (Array.length rounds) None and maxs = Array.make (Array.length rounds) None in
  let answered = ref 0 and failures = ref [] in
  let acked = ref 0 and seen = ref 0 in
  let gcp = ref [] and flags = ref [] and acks = ref [] and late = ref [] in
  let summary = ref None in
  let handle t = function
    | W.Ack { seen = s } ->
        seen := max !seen s;
        while !acked < nframes && f.ends.(!acked) <= s do
          acks := (t -. due !acked) :: !acks;
          incr acked
        done
    | W.Answer { id; answer } -> (
        let r = id / 4 in
        let lat = t -. round_due.(r) in
        incr answered;
        Stats.attempt tally ~ok:true;
        match (id mod 4, answer) with
        | (0 | 1), W.Flag _ -> flags := lat :: !flags
        | 2, W.Cut cut ->
            gcp := lat :: !gcp;
            mins.(r) <- Some cut
        | 3, W.Cut cut ->
            gcp := lat :: !gcp;
            maxs.(r) <- Some cut
        | _ -> raise (Report.Gate "serve-query: answer of the wrong shape"))
    | W.Failed { error; _ } ->
        incr answered;
        Stats.attempt tally ~ok:false;
        failures := error :: !failures
    | W.Goodbye { summary = s; orphans = []; _ } -> summary := Some s
    | W.Goodbye _ -> raise (Report.Gate "serve-query: stream ended mid-rollback-cascade")
    | W.Rejected { error; _ } ->
        Stats.attempt tally ~ok:false;
        raise (Transport ("rejected: " ^ error))
    | _ -> raise (Transport "unexpected response")
  in
  let receive ~until =
    (* block for the next response, but never past [until] *)
    let wait = until -. now () in
    if wait > 0. then
      match Client.recv ~timeout:wait c with
      | Ok r -> handle (now ()) r
      | Error e -> if Client.eof c then raise (Transport e)
  in
  let next_round = ref 0 in
  let k = ref 0 in
  while !k < nframes do
    let d = due !k in
    if now () >= d then begin
      late := (now () -. d) :: !late;
      Span.with_ spans ~req:((rep * 1_000_000) + !k) "frame" (fun () ->
          send spans c "events" tally (W.Events f.frames.(!k)));
      if !next_round < Array.length rounds && rounds.(!next_round).frame = !k then begin
        let r = !next_round in
        let { set; _ } = rounds.(r) in
        let a = List.nth set 0 and b = List.nth set 1 in
        round_due.(r) <- d;
        List.iteri
          (fun i q ->
            Span.with_ spans ~req:(-((4 * r) + i + 1)) "query" (fun () ->
                send spans c "query" tally (W.Query { id = (4 * r) + i; query = q })))
          [ W.Rdt_so_far; W.Trackable (a, b); W.Min_gcp set; W.Max_gcp set ];
        incr next_round
      end;
      List.iter (handle (now ())) (poll spans c);
      incr k
    end
    else receive ~until:d
  done;
  send spans c "sync" tally W.Sync;
  send spans c "bye" tally W.Bye;
  let deadline = now () +. 60. in
  while !summary = None do
    if now () > deadline then raise (Transport "no goodbye within 60 s");
    match Client.recv ~timeout:(deadline -. now ()) c with
    | Ok r -> handle (now ()) r
    | Error e -> raise (Transport e)
  done;
  let q_end = now () in
  Client.close c;
  Report.gate (!acked = nframes) "serve-query: %d of %d frames never acked" (nframes - !acked) nframes;
  Report.gate
    (!answered = 4 * Array.length rounds)
    "serve-query: %d of %d queries unanswered"
    ((4 * Array.length rounds) - !answered)
    (4 * Array.length rounds);
  {
    gcp = !gcp;
    acks = !acks;
    flags = !flags;
    late = !late;
    acked = !seen;
    wall = q_end -. start;
    q_begin = start;
    q_end;
    answers =
      List.init (Array.length rounds) (fun r -> (r, mins.(r), maxs.(r)));
    failures = List.rev !failures;
    summary = Option.get !summary;
  }

let check_query (rounds : round array) expected r =
  (match r.failures with
  | [] -> ()
  | e :: _ ->
      raise (Report.Gate (Printf.sprintf "serve-query: %d queries failed, first: %s" (List.length r.failures) e)));
  List.iter
    (fun (i, mn, mx) ->
      let emin, emax = Lazy.force rounds.(i).expected in
      Report.gate (mn = Some emin && mx = Some emax)
        "serve-query: GCP answer after %d events differs from Min_gcp on Replay.rebuild of the prefix"
        rounds.(i).after)
    r.answers;
  Report.gate (r.summary = Lazy.force expected) "serve-query: goodbye summary differs from Online.check_trace"

(* ------------------------------------------------------------------ *)
(* Set-up and the end-to-end runs                                      *)
(* ------------------------------------------------------------------ *)

type ingest_state = { traces : Inputs.trace array; streams : frames array; expected : O.summary Lazy.t array }
type query_state = {
  trace : Inputs.trace;
  qframes : frames;
  rounds : round array;
  qexpected : O.summary Lazy.t;
}

let ingest_inputs (size : Inputs.size) ~seed =
  let traces =
    Array.init 2 (fun i ->
        Inputs.trace ~seed ~label:(Printf.sprintf "ingest-%d" i) ~messages:size.ingest_messages)
  in
  {
    traces;
    streams =
      Array.map (fun (t : Inputs.trace) -> framed ingest_frame t.events ~epoch_ends:[ t.count ]) traces;
    expected = Array.map (fun (t : Inputs.trace) -> Report.expected_summary "serve-ingest" t.events) traces;
  }

let query_inputs (size : Inputs.size) ~seed =
  let trace, epoch_ends =
    Inputs.stitched ~seed ~label:"query" ~epochs:size.query_epochs ~messages:size.query_epoch_messages
  in
  let qframes = framed query_frame trace.events ~epoch_ends in
  { trace; qframes; rounds = plan qframes epoch_ends; qexpected = Report.expected_summary "serve-query" trace.events }

(* Set-up: generate the inputs, start the daemon, connect (the wait for
   the daemon to accept counts). *)
let setup kind ~socket inputs =
  let st = inputs () in
  let d = start_daemon kind ~socket in
  Client.close (Daemon.connect d);
  (st, d)

(* The set-ups behind [setup_s]; each one's daemon is stopped, and the
   inputs of the last are kept. *)
let daemon_setups (size : Inputs.size) kind ~socket inputs =
  let (st, d), setup_s, wall_setup_s =
    Report.setups ~times:size.setups ~teardown:(fun (_, d) -> Daemon.stop d) (fun () ->
        setup kind ~socket inputs)
  in
  Daemon.stop d;
  (st, (setup_s, wall_setup_s))

(* Every repetition gets a daemon started for it, so each one meets the
   same fresh daemon (heap, streams), whatever the earlier ones left.
   Returns the repetition, the daemon's CPU time over it and its peak
   RSS before SIGTERM. *)
let on_fresh_daemon kind ~socket f =
  let d = start_daemon kind ~socket in
  Client.close (Daemon.connect d);
  let c0 = Daemon.cpu_s d in
  let r = f () in
  let cpu = Daemon.cpu_s d -. c0 in
  let rss = Daemon.peak_rss_mb d in
  Daemon.stop d;
  (r, cpu, rss)

let transport_gate f =
  try f () with Transport e -> raise (Report.Gate ("transport error: " ^ e))

let ingest_check st r =
  List.iteri
    (fun i s ->
      Report.gate (s = Lazy.force st.expected.(i))
        "serve-ingest: stream %d's goodbye summary differs from serial Online.check_trace" i)
    r.summaries

let run_ingest size ~seed ~seconds ~rdtsim ~dir =
  let socket = Filename.concat dir "serve.sock" and kind = Binary rdtsim in
  let st, setup = daemon_setups size kind ~socket (fun () -> ingest_inputs size ~seed) in
  Array.iter (fun t -> print_endline (Inputs.describe t)) st.traces;
  let tally = Stats.tally () in
  let runs =
    transport_gate (fun () ->
        Report.repeat ~seconds (fun rep ->
            on_fresh_daemon kind ~socket (fun () -> ingest_rep ~socket ~rep st.streams tally)))
  in
  List.iter (fun (((r : ingest_rep), _, _), _) -> ingest_check st r) runs;
  Report.outcome ~setup ~in_process:false ~op:"frame send until its covering ack"
    ~work:"acknowledged events (2 streams), daemon" ~rss:"daemon VmHWM before SIGTERM" tally
    (List.map
       (fun (((r : ingest_rep), cpu, rss), factor) ->
         { Report.ops = r.samples; events = r.events; wall = r.wall; cpu; rss; factor })
       runs)

let run_query (size : Inputs.size) ~seed ~seconds ~rdtsim ~dir =
  let socket = Filename.concat dir "serve.sock" and kind = Binary rdtsim in
  let st, setup = daemon_setups size kind ~socket (fun () -> query_inputs size ~seed) in
  print_endline (Inputs.describe st.trace);
  Printf.printf "input serve-query: %d frames at %.0f events/s, %d query rounds\n"
    (Array.length st.qframes.frames) size.query_rate (Array.length st.rounds);
  let tally = Stats.tally () in
  let runs =
    transport_gate (fun () ->
        Report.repeat ~seconds (fun rep ->
            on_fresh_daemon kind ~socket (fun () ->
                query_rep ~socket ~rep ~rate:size.query_rate st.qframes st.rounds tally)))
  in
  let reps = List.map (fun ((r, _, _), _) -> r) runs in
  List.iter (check_query st.rounds st.qexpected) reps;
  let pooled f = List.concat_map f reps in
  let ack_p50, ack_tail =
    Report.latency ~p50:"ack_p50_ms" ~tail:"ack_tail_ms"
      ~what:"frame due time until its covering ack" (List.map (fun r -> r.acks) reps)
  in
  Report.outcome ~setup ~in_process:false ~op:"min-gcp/max-gcp, due time to answer" ~work:"acknowledged events, daemon"
    ~rss:"daemon VmHWM before SIGTERM"
    ~extra:
      [
        ack_p50;
        ack_tail;
        Report.metric "flag_query_p50_ms" "ms"
          ~samples:(List.length (pooled (fun r -> r.flags)))
          ~what:"rdt-so-far/trackable, due time to answer"
          (1e3 *. Stats.median (pooled (fun r -> r.flags)));
        Report.metric "gen_late_p50_ms" "ms" ~samples:(List.length (pooled (fun r -> r.late)))
          ~what:"generator lateness per frame" (1e3 *. Stats.median (pooled (fun r -> r.late)));
        Report.metric "gen_late_max_ms" "ms" ~what:"generator lateness, worst frame"
          (1e3 *. List.fold_left Float.max 0. (pooled (fun r -> r.late)));
      ]
    tally
    (List.map
       (fun ((r, cpu, rss), factor) -> { Report.ops = r.gcp; events = r.acked; wall = r.wall; cpu; rss; factor })
       runs)

(* ------------------------------------------------------------------ *)
(* Traced layer pass                                                   *)
(* ------------------------------------------------------------------ *)

let in_window lo hi steps = List.filter (fun s -> s.t0 >= lo && s.t0 < hi) steps

(* One serve-ingest and one serve-query repetition against a hosted
   daemon, plus the query path timed from outside on the same prefixes.
   Returns the two workloads' traced op p50s (for the tracing overhead)
   and the metrics. *)
let layers (size : Inputs.size) ~seed ~dir spans tally =
  let socket = Filename.concat dir "hosted.sock" and stats = Filename.concat dir "steps.txt" in
  let ist = ingest_inputs size ~seed and qst = query_inputs size ~seed in
  let d = start_daemon (Hosted stats) ~socket in
  Client.close (Daemon.connect d);
  let ir, qr =
    transport_gate (fun () ->
        let ir = ingest_rep ~spans ~socket ~rep:0 ist.streams tally in
        let qr = query_rep ~spans ~socket ~rep:0 ~rate:size.query_rate qst.qframes qst.rounds tally in
        (ir, qr))
  in
  Daemon.stop d;
  ingest_check ist ir;
  check_query qst.rounds qst.qexpected qr;
  let steps = read_steps stats in
  List.iter
    (fun s ->
      let id = Span.add spans "serve.step" ~t0:s.t0 ~t1:s.t1 in
      if s.apply > 0. then ignore (Span.add spans ~parent:id "serve.apply" ~t0:(s.t1 -. s.apply) ~t1:s.t1);
      if s.query > 0. then
        ignore
          (Span.add spans ~parent:id "serve.query"
             ~t0:(s.t1 -. s.apply -. s.query)
             ~t1:(s.t1 -. s.apply)))
    steps;
  let isteps = in_window ir.t_begin ir.t_end steps and qsteps = in_window qr.q_begin qr.q_end steps in
  let sum f l = List.fold_left (fun a s -> a +. f s) 0. l in
  let step_s s = s.t1 -. s.t0 in
  let backlog = List.filter (fun s -> s.depth > 0) isteps in
  let step_times = List.map step_s isteps in
  let step_tail =
    match Stats.tail step_times with Some t -> t.value | None -> List.fold_left Float.max 0. step_times
  in
  let total = Span.totals spans in
  let secs name = let _, s, _ = total name in s in
  let calls name = let c, _, _ = total name in c in
  (* the query path from outside: an ephemeral session fed up to each
     round's prefix, then each step of a GCP answer timed on its own *)
  let sess = Rdt_check.Session.ephemeral ~n:Inputs.n () in
  let export = ref [] and pattern = ref [] and mins = ref [] and maxs = ref [] and flag = ref [] in
  let fed = ref 0 in
  let timed acc f =
    let t0 = now () in
    let v = f () in
    acc := (now () -. t0) :: !acc;
    v
  in
  Array.iter
    (fun (r : round) ->
      for k = !fed to r.frame do
        ignore (Rdt_check.Session.feed sess qst.qframes.frames.(k))
      done;
      fed := r.frame + 1;
      let eng = Rdt_check.Session.engine sess in
      ignore (timed export (fun () -> O.export eng));
      (match timed pattern (fun () -> Rdt_check.Session.pattern sess) with
      | Ok pat ->
          ignore (timed mins (fun () -> Rdt_core.Min_gcp.minimum_of_set pat r.set));
          ignore (timed maxs (fun () -> Rdt_core.Min_gcp.maximum_of_set pat r.set))
      | Error e -> raise (Report.Gate ("serve-query: Session.pattern failed: " ^ e)));
      (* flag answers take well under the clock's microsecond, so
         each sample is the mean of a thousand *)
      let a = List.nth r.set 0 and b = List.nth r.set 1 in
      let t0 = now () in
      for _ = 1 to 1000 do
        ignore (Sys.opaque_identity (O.rdt_so_far eng && O.trackable eng a b))
      done;
      flag := ((now () -. t0) /. 1000.) :: !flag)
    qst.rounds;
  let ms l = 1e3 *. Stats.median !l in
  let events = float_of_int ir.events in
  ( Stats.median ir.samples,
    Stats.median qr.gcp,
    [
      Report.metric "wire.encode_ns_per_event" "ns/event" (1e9 *. secs "wire.encode" /. events);
      Report.metric "client.send_s" "s" (secs "client.send");
      Report.metric "client.poll_s" "s" (secs "client.poll");
      Report.metric "client.frames" "count" (float_of_int (calls "frame"));
      Report.metric "client.ingest_wall_s" "s" ir.wall;
      Report.metric "serve.steps" "count" (float_of_int (List.length isteps));
      Report.metric "serve.step_p50_ms" "ms" (1e3 *. Stats.median step_times);
      Report.metric "serve.step_tail_ms" "ms" (1e3 *. step_tail);
      Report.metric "serve.backlog_steps" "count" (float_of_int (List.length backlog));
      Report.metric "serve.backlog_step_s" "s" (sum step_s backlog);
      Report.metric "serve.backlog_share" "ratio" (sum step_s backlog /. ir.wall);
      Report.metric "serve.apply_s" "s" (sum (fun s -> s.apply) isteps);
      Report.metric "serve.batches" "count" (sum (fun s -> float_of_int s.batches) isteps);
      Report.metric "serve.queue_depth_max" "events"
        (float_of_int (List.fold_left (fun a s -> max a s.depth) 0 isteps));
      Report.metric "serve.other_s" "s" (sum (fun s -> step_s s -. s.apply -. s.query) isteps);
      Report.metric "serve.query_s" "s" (sum (fun s -> s.query) qsteps);
      Report.metric "serve.queries" "count" (sum (fun s -> float_of_int s.queries) qsteps);
      Report.metric "query.export_ms" "ms" (ms export);
      Report.metric "query.pattern_ms" "ms" (ms pattern);
      Report.metric "query.min_gcp_ms" "ms" (ms mins);
      Report.metric "query.max_gcp_ms" "ms" (ms maxs);
      Report.metric "query.flag_us" "us" (1e6 *. Stats.median !flag);
      Report.metric "gen.late_ms_p50" "ms" (1e3 *. Stats.median qr.late);
      Report.metric "gen.late_ms_max" "ms" (1e3 *. List.fold_left Float.max 0. qr.late);
    ] )
