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
      (* a \\u escape takes exactly four hex digits *)
      "{\"ev\":\"verdict\",\"checker\":\"\\u0_41\",\"rdt\":true}";
      "{\"ev\":\"verdict\",\"checker\":\"\\u004_\",\"rdt\":true}";
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

(* ------------- the one-pass reader against the general path ------------- *)

module Naive = Rdt_test_helpers.Naive

let qt = QCheck_alcotest.to_alcotest
let event_arb = QCheck.make ~print:Trace.encode Rdt_test_helpers.Gen.trace_event

let qcheck_encode_matches_printf =
  QCheck.Test.make ~count:2000 ~name:"encode matches the Printf encoder byte for byte" event_arb
    (fun ev -> String.equal (Trace.encode ev) (Naive.trace_encode ev))

let qcheck_decode_roundtrip =
  QCheck.Test.make ~count:2000 ~name:"decode (encode ev) = general path = Ok ev" event_arb
    (fun ev ->
      let line = Trace.encode ev in
      Trace.decode line = Naive.trace_decode line && Trace.decode line = Ok ev)

(* A line as its rendered fields, (key, value) in JSON text, so a
   mutation can reorder, repeat, drop or rewrite them. *)
let rec render (j : Trace.Json.t) =
  match j with
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.17g" f
  | String s -> "\"" ^ Trace.json_escape s ^ "\""
  | Arr l -> "[" ^ String.concat "," (List.map render l) ^ "]"
  | Obj o ->
      "{" ^ String.concat "," (List.map (fun (k, v) -> render (String k) ^ ":" ^ render v) o) ^ "}"

let fields ev =
  match Trace.Json.parse (Trace.encode ev) with
  | Ok (Obj o) -> List.map (fun (k, v) -> (render (String k), render v)) o
  | _ -> assert false

(* Values of every shape the general path treats specially: floats,
   integers at and beyond the 18-digit and [max_int] limits, other
   types, escapes, and tokens that are not JSON. *)
let odd_values =
  [
    "1.0"; "1e3"; "-0"; "007"; "123456789012345678"; "-123456789012345678"; "1234567890123456789";
    "4611686018427387903"; "4611686018427387904"; "-4611686018427387904"; "-4611686018427387905";
    "99999999999999999999"; "\"3\""; "true"; "false"; "null"; "[]"; "[1, 2]"; "[\"c1\"]"; "{}";
    "\"\""; "\"forced\""; "\"send\""; "\"ckpt\""; "\"a\\u0062c\""; "\"\\u0066orced\""; "-"; "1-2";
    "+1"; "0x10"; "tru"; "truex"; "[1,]"; "[\"a\",1]";
  ]

let agrees line = Trace.decode line = Naive.trace_decode line

(* the first character of a JSON string as a \u escape *)
let escape_first text =
  if String.length text > 2 && text.[0] = '"' && text.[1] <> '\\' then
    Printf.sprintf "\"\\u%04x%s" (Char.code text.[1]) (String.sub text 2 (String.length text - 2))
  else text

(* Each odd value in each field of each sample line, and each field
   repeated with it. *)
let test_odd_values_in_every_field () =
  List.iter
    (fun ev ->
      let fs = fields ev in
      let line fs = "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ ":" ^ v) fs) ^ "}" in
      List.iteri
        (fun i (k, _) ->
          List.iter
            (fun odd ->
              let set = line (List.mapi (fun j kv -> if i = j then (k, odd) else kv) fs) in
              let repeated = line (fs @ [ (k, odd) ]) in
              check set true (agrees set);
              check repeated true (agrees repeated))
            odd_values)
        fs)
    sample_events

let mutate_fields fs =
  let open QCheck.Gen in
  let pick = int_bound (List.length fs - 1) in
  let set i f = List.mapi (fun j kv -> if i = j then f kv else kv) fs in
  let insert i kv = List.concat (List.mapi (fun j x -> if i = j then [ kv; x ] else [ x ]) fs) in
  oneof
    [
      shuffle_l fs;
      map2
        (fun i v -> fs @ [ (fst (List.nth fs i), v) ])
        pick
        (oneof [ oneofl odd_values; return "1" ]);
      map2 (fun i k -> insert i (k, "1"))
        pick
        (oneofl [ "\"zz\""; "\"pid\""; "\"msg\""; "\"tdv\""; "\"preds\""; "\"kind\""; "\"rdt\"" ]);
      map (fun i -> List.filteri (fun j _ -> i <> j) fs) pick;
      map2 (fun i v -> set i (fun (k, _) -> (k, v))) pick (oneofl odd_values);
      map (fun i -> set i (fun (k, v) -> (escape_first k, v))) pick;
      map (fun i -> set i (fun (k, v) -> (k, escape_first v))) pick;
    ]

let mutated_line =
  let open QCheck.Gen in
  Rdt_test_helpers.Gen.trace_event >>= fun ev ->
  list_size (frequency [ (2, return 0); (1, int_range 1 3) ]) (return ()) >>= fun rounds ->
  List.fold_left (fun acc () -> acc >>= mutate_fields) (return (fields ev)) rounds >>= fun fs ->
  let ws = oneofl [ ""; ""; ""; " "; "\t"; "\r"; " \n " ] in
  list_repeat ((4 * List.length fs) + 2) (frequency [ (3, return ""); (1, ws) ]) >>= fun gaps ->
  let gaps = Array.of_list gaps in
  let body =
    List.mapi
      (fun i (k, v) ->
        let gap j = gaps.((4 * i) + j) in
        gap 0 ^ k ^ gap 1 ^ ":" ^ gap 2 ^ v ^ gap 3)
      fs
  in
  let last = Array.length gaps - 1 in
  let line = gaps.(last - 1) ^ "{" ^ String.concat "," body ^ "}" ^ gaps.(last) in
  (* then at most one byte-level change anywhere: a trailing carriage
     return or character, or whitespace or a structural character
     inserted or overwritten *)
  let n = String.length line in
  let byte =
    oneofl [ "\""; "\\"; ","; ":"; "{"; "}"; "["; "]"; "-"; "."; "e"; "0"; "x"; "\012"; "\011" ]
  in
  oneof
    [
      return line;
      return (line ^ "\r");
      map (fun c -> line ^ c) byte;
      map2
        (fun i c -> String.sub line 0 i ^ c ^ String.sub line i (n - i))
        (int_bound n)
        (oneof [ ws; byte ]);
      map2
        (fun i c -> String.sub line 0 i ^ c ^ String.sub line (i + 1) (n - i - 1))
        (int_bound (n - 1))
        (oneof [ ws; byte ]);
    ]

let qcheck_mutated_lines =
  QCheck.Test.make ~count:1000 ~name:"mutated lines and their prefixes decode as the general path"
    (QCheck.make ~print:String.escaped mutated_line) (fun line ->
      (* [decode_sub] reads the line and each prefix inside a longer
         string: it must stop where told *)
      let framed = "}\"x" ^ line ^ "1,\"" in
      let agrees_at len =
        Trace.decode_sub framed ~pos:3 ~len = Naive.trace_decode (String.sub line 0 len)
      in
      let all = ref (agrees line) in
      for len = 0 to String.length line do
        if not (agrees_at len) then all := false
      done;
      !all)

(* Every kind takes the one-pass reader on its canonical line: the
   general path allocates hundreds of words per line, the reader only
   the event (with its TDV and predicate names) and the result. *)
let test_plain_lines_allocate_little () =
  List.iter
    (fun ev ->
      let line = Trace.encode ev in
      ignore (Trace.decode line);
      let w0 = Gc.minor_words () in
      let r = Trace.decode line in
      let words = Gc.minor_words () -. w0 in
      check line true (r = Ok ev);
      if words > 64. then Alcotest.failf "%s: %.0f minor words" line words)
    sample_events;
  Alcotest.(check int) "every kind covered" (List.length Trace.kind_names)
    (List.length (List.sort_uniq compare (List.map Trace.kind_name sample_events)))

(* [decode_sub] takes the ranges [String.sub] takes, and raises what it
   raises on the others, before reading a byte. *)
let test_decode_sub_range () =
  let line = Trace.encode (List.hd sample_events) in
  let n = String.length line in
  List.iter
    (fun (pos, len) ->
      let expected =
        match String.sub line pos len with
        | sub -> Ok (Trace.decode sub)
        | exception Invalid_argument _ -> Error ()
      in
      let got =
        match Trace.decode_sub line ~pos ~len with
        | r -> Ok r
        | exception Invalid_argument _ -> Error ()
      in
      check (Printf.sprintf "pos %d len %d" pos len) true (got = expected))
    [
      (0, n); (0, 0); (n, 0); (1, n - 1); (-1, 1); (0, -1); (0, n + 1); (n, 1); (n + 1, 0);
      (max_int, 1); (1, max_int); (min_int, 0);
    ]

let with_file contents f =
  let file = Filename.temp_file "rdt_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_bin file (fun oc -> output_string oc contents);
      f file)

(* Blank lines ([String.trim]'s whitespace, form feed included), CRLF
   endings, a last line without a newline, and one bad line: the same
   events or the same [line N] error as the line-list reader. *)
let test_read_file_matches_line_reader () =
  let lines = List.map Trace.encode sample_events in
  let crlf = List.map (fun l -> l ^ "\r") lines in
  let blanks = [ ""; "   "; "\t\r"; "\012"; " \r" ] in
  let interleave ls = List.concat (List.mapi (fun i l -> [ List.nth blanks (i mod 5); l ]) ls) in
  let good =
    [
      String.concat "\n" lines ^ "\n";
      String.concat "\n" lines;
      String.concat "\n" crlf ^ "\n";
      String.concat "\n" (interleave crlf) ^ "\n\n\n";
      "\n\n" ^ String.concat "\n" (List.map (fun l -> "  " ^ l ^ " \t") lines);
    ]
  in
  List.iter
    (fun contents ->
      with_file contents (fun file ->
          let got = Trace.read_file file in
          check "same as the line reader" true (got = Naive.trace_read_file file);
          check "events" true (got = Ok sample_events)))
    good;
  (* lines across block boundaries, and one longer than a block *)
  let long =
    Trace.Ckpt
      {
        pid = 0;
        index = 1;
        kind = T.Forced;
        time = 5;
        tdv = Some (Array.init 30_000 Fun.id);
        preds = [];
      }
  in
  let many = List.concat (List.init 400 (fun _ -> sample_events)) @ [ long ] @ sample_events in
  with_file
    (String.concat "\r\n" (List.map Trace.encode many))
    (fun file ->
      let got = Trace.read_file file in
      check "long file same as the line reader" true (got = Naive.trace_read_file file);
      check "long file events" true (got = Ok many));
  List.iter
    (fun bad ->
      let ls = interleave crlf in
      let ls = List.mapi (fun i l -> if i = 7 then bad else l) ls in
      with_file (String.concat "\n" ls) (fun file ->
          let got = Trace.read_file file in
          check "same error as the line reader" true (got = Naive.trace_read_file file);
          match got with
          | Error e ->
              check e true (String.starts_with ~prefix:(file ^ ", line 8: ") e)
          | Ok _ -> Alcotest.failf "%S accepted" bad))
    [
      "{\"ev\":\"send\",\"msg\":1}\r";
      "not json";
      "{\"ev\":\"send\",\"msg\":1.5,\"src\":0,\"dst\":1,\"t\":2}";
    ];
  check "missing file" true
    (Trace.read_file "/nonexistent/trace.jsonl" = Naive.trace_read_file "/nonexistent/trace.jsonl")

(* -------------------------- sinks ----------------------------------- *)

let test_null_sink () =
  check "off" false (Trace.on Trace.null);
  Trace.emit Trace.null (Trace.Internal { pid = 0; time = 0 });
  check "no events kept" true (Trace.events Trace.null = [])

let test_ring_sink () =
  let tr = Trace.ring ~capacity:4 in
  check "on" true (Trace.on tr);
  for i = 1 to 10 do
    Trace.emit tr (Trace.Internal { pid = i; time = i })
  done;
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
  match Meter.spans m with
  | [ ("phase", s); ("timed", t) ] ->
      Alcotest.(check int) "phase calls" 2 s.Meter.calls;
      check "phase seconds" true (abs_float (s.Meter.seconds -. 0.75) < 1e-9);
      Alcotest.(check int) "timed calls" 1 t.Meter.calls
  | _ -> Alcotest.fail "unexpected span set"

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
          Alcotest.test_case "plain lines take the one-pass reader" `Quick
            test_plain_lines_allocate_little;
          Alcotest.test_case "read_file = line-list reader" `Quick test_read_file_matches_line_reader;
          Alcotest.test_case "odd values in every field" `Quick test_odd_values_in_every_field;
          Alcotest.test_case "decode_sub range = String.sub" `Quick test_decode_sub_range;
          qt qcheck_encode_matches_printf;
          qt qcheck_decode_roundtrip;
          qt qcheck_mutated_lines;
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
