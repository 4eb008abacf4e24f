(* Tests for rdt_obs: the JSONL trace codec, the recorder sinks, the
   metrics registry, and — the heart of it — trace replay: rebuilding the
   pattern from the recorded events and checking that the offline RDT
   verdicts of the rebuilt pattern equal the live run's. *)

module Trace = Rdt_obs.Trace
module Replay = Rdt_obs.Replay
module Meter = Rdt_obs.Meter
module P = Rdt_pattern.Pattern
module T = Rdt_pattern.Types
module Checker = Rdt_core.Checker
module Runtime = Rdt_core.Runtime

let check = Alcotest.(check bool)

(* -------------------------- codec ----------------------------------- *)

let sample_events =
  [
    Trace.Meta { n = 4; protocol = "bhmr"; env = "random"; seed = 7; mode = "verify" };
    Trace.Send { msg = 12; src = 0; dst = 3; time = 101 };
    Trace.Deliver { msg = 12; src = 0; dst = 3; time = 140 };
    Trace.Internal { pid = 2; time = 55 };
    Trace.Ckpt { pid = 1; index = 0; kind = T.Initial; time = 0; tdv = None; preds = [] };
    Trace.Ckpt
      {
        pid = 1;
        index = 3;
        kind = T.Forced;
        time = 222;
        tdv = Some [| 1; 3; 0; 2 |];
        preds = [ "c1"; "c2" ];
      };
    Trace.Ckpt { pid = 0; index = 2; kind = T.Basic; time = 180; tdv = Some [| 2; 0; 0; 0 |]; preds = [] };
    Trace.Retransmit { src = 1; dst = 2; seq = 9; attempt = 2; time = 300 };
    Trace.Drop { src = 2; dst = 1; time = 310 };
    Trace.Undeliverable { msg = 9; src = 1; dst = 2; time = 400 };
    Trace.Rollback { pid = 3; to_index = 1; time = 500 };
    Trace.Replay { msg = 4; src = 0; dst = 3; time = 510 };
    Trace.Verdict { checker = "rgraph_tdv"; rdt = true };
    Trace.Verdict { checker = "doubling"; rdt = false };
  ]

let test_codec_roundtrip () =
  List.iter
    (fun ev ->
      let line = Trace.encode ev in
      match Trace.decode line with
      | Ok ev' -> if ev <> ev' then Alcotest.failf "round-trip changed %s" line
      | Error e -> Alcotest.failf "cannot decode %s: %s" line e)
    sample_events

let test_codec_rejects_garbage () =
  List.iter
    (fun line -> check line true (Result.is_error (Trace.decode line)))
    [
      "";
      "not json";
      "{}";
      "{\"ev\":\"unknown\"}";
      "{\"ev\":\"send\",\"msg\":1}";
      "{\"ev\":\"ckpt\",\"pid\":0,\"index\":1,\"kind\":\"bogus\",\"t\":3}";
    ]

let test_file_roundtrip () =
  let file = Filename.temp_file "rdt_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_text file (fun oc ->
          let tr = Trace.to_channel oc in
          List.iter (Trace.emit tr) sample_events);
      match Trace.read_file file with
      | Ok evs -> check "file round-trip" true (evs = sample_events)
      | Error e -> Alcotest.fail e)

(* -------------------------- sinks ----------------------------------- *)

let test_null_sink () =
  check "off" false (Trace.on Trace.null);
  Trace.emit Trace.null (Trace.Internal { pid = 0; time = 0 });
  Alcotest.(check int) "no events counted" 0 (Trace.count Trace.null);
  check "no events kept" true (Trace.events Trace.null = [])

let test_ring_sink () =
  let tr = Trace.ring ~capacity:4 in
  check "on" true (Trace.on tr);
  for i = 1 to 10 do
    Trace.emit tr (Trace.Internal { pid = i; time = i })
  done;
  Alcotest.(check int) "all emissions counted" 10 (Trace.count tr);
  check "keeps the most recent, oldest first" true
    (Trace.events tr
    = List.map (fun i -> Trace.Internal { pid = i; time = i }) [ 7; 8; 9; 10 ]);
  Alcotest.check_raises "capacity validated"
    (Invalid_argument "Trace.ring: capacity must be positive")
    (fun () -> ignore (Trace.ring ~capacity:0))

(* -------------------------- meter ----------------------------------- *)

let test_meter () =
  let m = Meter.create () in
  Meter.incr m "a";
  Meter.add m "a" 4;
  Meter.incr m "b";
  Meter.set_gauge m "depth" 17;
  Meter.add_span m "phase" 0.5;
  Meter.add_span m "phase" 0.25;
  let x = Meter.time m "timed" (fun () -> 42) in
  Alcotest.(check int) "time returns the result" 42 x;
  check "counters sorted with gauges" true
    (Meter.counters m = [ ("a", 5); ("b", 1); ("gauge:depth", 17) ]);
  (match Meter.spans m with
  | [ ("phase", s); ("timed", t) ] ->
      Alcotest.(check int) "phase calls" 2 s.Meter.calls;
      check "phase seconds" true (abs_float (s.Meter.seconds -. 0.75) < 1e-9);
      Alcotest.(check int) "timed calls" 1 t.Meter.calls
  | _ -> Alcotest.fail "unexpected span set");
  Meter.reset m;
  check "reset" true (Meter.counters m = [] && Meter.spans m = [])

(* -------------------------- replay ---------------------------------- *)

let runtime_config ?(n = 5) ?(messages = 150) ?(faults = Rdt_dist.Faults.none) ?transport
    ~envname ~seed ~trace protocol =
  let env = Rdt_workloads.Registry.find_exn envname in
  {
    (Runtime.default_config env protocol) with
    Runtime.n;
    seed;
    max_messages = messages;
    faults;
    transport;
    trace;
  }

let three_verdicts pat =
  ( (Checker.run pat).Checker.rdt,
    (Checker.run ~algo:`Chains pat).Checker.rdt,
    (Checker.run ~algo:`Doubling pat).Checker.rdt )

(* The acceptance matrix: every registry protocol on three environments
   and three seeds.  The trace must rebuild to the *same* pattern the
   live run produced, hence (a fortiori) the same three RDT verdicts. *)
let test_replay_matrix () =
  List.iter
    (fun protocol ->
      let pname = Rdt_core.Protocol.name protocol in
      List.iter
        (fun envname ->
          List.iter
            (fun seed ->
              let tr = Trace.ring ~capacity:100_000 in
              let r = Runtime.run (runtime_config ~envname ~seed ~trace:tr protocol) in
              match Replay.rebuild (Trace.events tr) with
              | Error e ->
                  Alcotest.failf "%s/%s seed %d: rebuild failed: %s" pname envname seed e
              | Ok rebuilt ->
                  if not (Rdt_pattern.Pattern.equal rebuilt r.Runtime.pattern) then
                    Alcotest.failf "%s/%s seed %d: rebuilt pattern differs" pname envname seed;
                  if three_verdicts rebuilt <> three_verdicts r.Runtime.pattern then
                    Alcotest.failf "%s/%s seed %d: verdicts differ" pname envname seed)
            [ 1; 2; 3 ])
        [ "random"; "group"; "client-server" ])
    Rdt_core.Registry.all

(* Same property for the faulty path of the runtime: drops, duplicates,
   reordering and a partition over the reliable transport. *)
let test_replay_under_faults () =
  let faults =
    {
      Rdt_dist.Faults.drop = 0.15;
      dup = 0.05;
      reorder = 0.05;
      reorder_window = 40;
      partitions = [ { Rdt_dist.Faults.between = [ 1 ]; from_t = 1000; to_t = 2500 } ];
      intermittent = [];
    }
  in
  List.iter
    (fun seed ->
      let tr = Trace.ring ~capacity:200_000 in
      let cfg =
        runtime_config ~envname:"random" ~seed ~trace:tr ~faults
          ~transport:Rdt_dist.Transport.default_params
          (Rdt_core.Registry.find_exn "bhmr")
      in
      let r = Runtime.run cfg in
      match Replay.rebuild (Trace.events tr) with
      | Error e -> Alcotest.failf "seed %d: rebuild failed: %s" seed e
      | Ok rebuilt ->
          check "pattern equal under faults" true (P.equal rebuilt r.Runtime.pattern);
          (* the transport leaves its footprint in the trace *)
          check "trace has drops" true
            (List.exists (function Trace.Drop _ -> true | _ -> false) (Trace.events tr)))
    [ 1; 2; 3 ]

(* Crash-and-recovery traces: rollbacks truncate the per-process stacks,
   replays re-enter as fresh deliveries, and the rebuilt pattern must be
   the surviving execution. *)
let test_replay_crashrun () =
  let crashes =
    [
      { Runtime.victim = 2; at = 2000; repair_delay = 200 };
      { Runtime.victim = 0; at = 4500; repair_delay = 300 };
    ]
  in
  List.iter
    (fun (pname, faults, transport) ->
      List.iter
        (fun seed ->
          let tr = Trace.ring ~capacity:200_000 in
          let p = Rdt_core.Registry.find_exn pname in
          let env = Rdt_workloads.Registry.find_exn "random" in
          let r =
            Runtime.run
              {
                (Runtime.default_config env p) with
                Runtime.n = 5;
                seed;
                max_messages = 300;
                crashes;
                faults;
                transport;
                trace = tr;
              }
          in
          match Replay.rebuild (Trace.events tr) with
          | Error e -> Alcotest.failf "%s seed %d: rebuild failed: %s" pname seed e
          | Ok rebuilt ->
              if not (Rdt_pattern.Pattern.equal rebuilt r.Runtime.pattern) then
                Alcotest.failf "%s seed %d: rebuilt surviving pattern differs" pname seed;
              check "rollbacks recorded" true
                (List.exists (function Trace.Rollback _ -> true | _ -> false) (Trace.events tr)))
        [ 1; 2; 3 ])
    [
      ("bhmr", Rdt_dist.Faults.none, None);
      ("fdas", { Rdt_dist.Faults.none with drop = 0.15 }, Some Rdt_dist.Transport.default_params);
    ]

let test_replay_errors () =
  (* structurally impossible traces are rejected, not mis-rebuilt *)
  let bad =
    [
      ( "unknown delivery",
        [ Trace.Deliver { msg = 3; src = 0; dst = 1; time = 5 } ] );
      ( "undeliverable delivered",
        [
          Trace.Send { msg = 3; src = 0; dst = 1; time = 1 };
          Trace.Undeliverable { msg = 3; src = 0; dst = 1; time = 2 };
          Trace.Deliver { msg = 3; src = 0; dst = 1; time = 5 };
        ] );
      ( "rollback to missing checkpoint",
        [
          Trace.Internal { pid = 0; time = 1 };
          Trace.Rollback { pid = 0; to_index = 2; time = 3 };
        ] );
      ("empty", []);
    ]
  in
  List.iter (fun (name, evs) -> check name true (Result.is_error (Replay.rebuild evs))) bad

let test_summary () =
  let tr = Trace.ring ~capacity:100_000 in
  let r =
    Runtime.run
      (runtime_config ~envname:"random" ~seed:1 ~trace:tr (Rdt_core.Registry.find_exn "bhmr"))
  in
  let s = Replay.summarize (Trace.events tr) in
  Alcotest.(check int) "sends = budget" 150 (List.assoc "send" s.Replay.by_kind);
  Alcotest.(check int) "delivers = messages" (P.num_messages r.Runtime.pattern)
    (List.assoc "deliver" s.Replay.by_kind);
  check "forced grouped by predicates" true (s.Replay.forced_by_pred <> []);
  Alcotest.(check int) "n inferred" 5 s.Replay.n

(* The trace must not perturb the run: same seed with and without a
   recorder yields the identical pattern. *)
let test_tracing_is_observation_only () =
  List.iter
    (fun pname ->
      let p = Rdt_core.Registry.find_exn pname in
      let quiet = Runtime.run (runtime_config ~envname:"group" ~seed:4 ~trace:Trace.null p) in
      let traced =
        Runtime.run (runtime_config ~envname:"group" ~seed:4 ~trace:(Trace.ring ~capacity:65536) p)
      in
      check (pname ^ " same pattern") true
        (P.equal quiet.Runtime.pattern traced.Runtime.pattern))
    [ "bhmr"; "fdas"; "none" ]

let () =
  Alcotest.run "rdt_obs"
    [
      ( "codec",
        [
          Alcotest.test_case "round-trip" `Quick test_codec_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
          Alcotest.test_case "file round-trip" `Quick test_file_roundtrip;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "null" `Quick test_null_sink;
          Alcotest.test_case "ring" `Quick test_ring_sink;
        ] );
      ("meter", [ Alcotest.test_case "registry" `Quick test_meter ]);
      ( "replay",
        [
          Alcotest.test_case "protocol x env x seed matrix" `Slow test_replay_matrix;
          Alcotest.test_case "under network faults" `Quick test_replay_under_faults;
          Alcotest.test_case "crash and recovery" `Quick test_replay_crashrun;
          Alcotest.test_case "impossible traces rejected" `Quick test_replay_errors;
          Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "observation only" `Quick test_tracing_is_observation_only;
        ] );
    ]
