(* watch: one long recorded JSONL trace, decoded and streamed through a
   durable checker session exactly as [rdtsim watch --durable DIR FILE]
   does (default snapshot and fsync cadence).  Online's history growth,
   the WAL and the snapshots dominate; no socket or serve loop. *)

module T = Rdt_obs.Trace
module O = Rdt_check.Online
module S = Rdt_check.Session
module D = Rdt_durable.Session

let block = 128

type state = { trace : Inputs.trace; file : string; expected : O.summary Lazy.t }

let setup size ~seed ~dir =
  let trace = Inputs.trace ~seed ~label:"watch" ~messages:size.Inputs.watch_messages in
  let file = Filename.concat dir "watch.jsonl" in
  Out_channel.with_open_text file (fun oc ->
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        trace.lines);
  { trace; file; expected = Report.expected_summary "watch" trace.events }

type rep = {
  samples : float list;
  wall : float;
  cpu : float;
  events : int;
  disk : int;
  summary : O.summary;
}

let load file =
  match T.read_file file with
  | Ok evs -> evs
  | Error e -> raise (Report.Gate ("watch: cannot decode the trace: " ^ e))

(* One pass: decode, open a fresh durable session, observe every event
   in 128-event blocks (each block is one latency sample), close. *)
let rep ?(spans = Span.off) st ~dir tally =
  let ddir = Filename.concat dir "durable" in
  Inputs.rm_rf ddir;
  let self = Unix.getpid () in
  let c0 = Inputs.cpu_s self in
  let t0 = Rdt_obs.Meter.now () in
  let events = Span.with_ spans "trace.read_file" (fun () -> load st.file) in
  let n =
    match O.trace_process_count events with
    | Ok n -> n
    | Error e -> raise (Report.Gate ("watch: " ^ e))
  in
  let ds, _ = D.open_ ~dir:ddir ~n ~track_open:true () in
  let sess = D.checker_session ds in
  let samples = ref [] in
  let rec go evs =
    if evs <> [] then begin
      let b0 = Rdt_obs.Meter.now () in
      let rest =
        Span.with_ spans "durable.observe" (fun () ->
            let rec take k evs =
              match evs with
              | ev :: rest when k > 0 ->
                  let ok = Result.is_ok (S.observe sess ev) in
                  Stats.attempt tally ~ok;
                  take (k - 1) rest
              | rest -> rest
            in
            take block evs)
      in
      samples := (Rdt_obs.Meter.now () -. b0) :: !samples;
      go rest
    end
  in
  go events;
  Report.gate (O.orphan_messages (S.engine sess) = []) "watch: stream ends mid-rollback-cascade";
  Span.with_ spans "durable.close" (fun () -> S.close sess);
  let wall = Rdt_obs.Meter.now () -. t0 in
  let cpu = Inputs.cpu_s self -. c0 in
  let disk = Inputs.du ddir in
  let summary = S.summary sess in
  Inputs.rm_rf ddir;
  { samples = !samples; wall; cpu; events = List.length events; disk; summary }

let check st r =
  Report.gate
    (r.summary = Lazy.force st.expected)
    "watch: final summary differs from Online.check_trace on the same events"

let run size ~seed ~seconds ~dir =
  let st, setup_s, wall_setup_s =
    Report.setups ~times:size.Inputs.setups ~teardown:ignore (fun () -> setup size ~seed ~dir)
  in
  print_endline (Inputs.describe st.trace);
  let tally = Stats.tally () and self = Unix.getpid () in
  let reps =
    Report.repeat ~seconds (fun _ ->
        Inputs.reset_peak_rss ();
        let r = rep st ~dir tally in
        (r, Inputs.peak_rss_mb self))
  in
  List.iter (fun ((r, _), _) -> check st r) reps;
  Report.outcome ~setup:(setup_s, wall_setup_s) ~in_process:true
    ~op:"one 128-event block through the durable session" ~work:"events decoded and durably checked"
    ~rss:"benchmark process VmHWM"
    ~extra:
      [
        Report.metric "disk_mb" "MiB" ~samples:(List.length reps) ~what:"durable directory at close"
          (float_of_int (fst (fst (List.hd reps))).disk /. 1048576.);
      ]
    tally
    (List.map
       (fun (((r : rep), rss), factor) ->
         { Report.ops = r.samples; events = r.events; wall = r.wall; cpu = r.cpu; rss; factor })
       reps)

(* Traced layer pass over the same trace: the codec alone, Online alone
   on an ephemeral session, then one durable repetition. *)
let layers size ~seed ~dir spans tally =
  let st = setup size ~seed ~dir in
  let lines = In_channel.with_open_text st.file In_channel.input_lines in
  let bytes = List.fold_left (fun acc l -> acc + String.length l + 1) 0 lines in
  let d0 = Rdt_obs.Meter.now () in
  let events =
    Span.with_ spans "trace.decode" (fun () ->
        List.map (fun l -> match T.decode l with Ok ev -> ev | Error e -> failwith e) lines)
  in
  let decode_s = Rdt_obs.Meter.now () -. d0 in
  let count = List.length events in
  (* Online alone: the first and last tenth of the stream are timed
     separately, giving the per-event cost's growth with history *)
  let sess = S.ephemeral ~n:Inputs.n () in
  let decile = max 1 (count / 10) in
  let a0 = Inputs.alloc_words () in
  let o0 = Rdt_obs.Meter.now () in
  let first = ref 0. and last = ref 0. in
  Span.with_ spans "online.observe" (fun () ->
      List.iteri
        (fun i ev ->
          if i = decile then first := Rdt_obs.Meter.now () -. o0;
          if i = count - decile then last := Rdt_obs.Meter.now ();
          ignore (S.observe sess ev))
        events);
  let observe_s = Rdt_obs.Meter.now () -. o0 in
  let last = Rdt_obs.Meter.now () -. !last in
  let alloc = Inputs.alloc_words () -. a0 in
  let us s = 1e6 *. s /. float_of_int decile in
  let checkpoints = O.num_checkpoints (S.engine sess) in
  (* the durable store *)
  let snap0 = Report.meter_span "durable.snapshot" in
  let fsync0 = Report.meter_count "wal.fsync" and bytes0 = Report.meter_count "wal.bytes" in
  let r = rep ~spans st ~dir tally in
  check st r;
  let snap1 = Report.meter_span "durable.snapshot" in
  let total = Span.totals spans in
  let secs name = let _, s, _ = total name in s in
  ( Stats.median r.samples,
    [
      Report.metric "trace.decode_s" "s" decode_s;
      Report.metric "trace.decode_ns_per_event" "ns/event" (1e9 *. decode_s /. float_of_int count);
      Report.metric "trace.bytes" "bytes" (float_of_int bytes);
      Report.metric "online.observe_s" "s" observe_s;
      Report.metric "online.observe_us_first_decile" "us/event" (us !first);
      Report.metric "online.observe_us_last_decile" "us/event" (us last);
      Report.metric "online.alloc_words_per_event" "words/event" (alloc /. float_of_int count);
      Report.metric "online.checkpoints" "count" (float_of_int checkpoints);
      Report.metric "durable.observe_s" "s" (secs "durable.observe");
      Report.metric "durable.snapshot_s" "s" (snd snap1 -. snd snap0);
      Report.metric "durable.snapshots" "count" (float_of_int (fst snap1 - fst snap0));
      Report.metric "wal.fsyncs" "count" (float_of_int (Report.meter_count "wal.fsync" - fsync0));
      Report.metric "wal.bytes" "bytes" (float_of_int (Report.meter_count "wal.bytes" - bytes0));
      Report.metric "durable.close_s" "s" (secs "durable.close");
      Report.metric "durable.disk_mb" "MiB" (float_of_int r.disk /. 1048576.);
    ] )
