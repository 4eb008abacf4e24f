(* The serving stack, end to end in one process.

   The step-driven [Rdt_serve.Server] loop lets these tests interleave
   client writes and server steps deterministically: no forks, no
   threads, no sleeps.  The differential suites pin the served path to
   the serial [Online.check_trace] oracle — same events, byte-equal
   verdicts — including a stream that violates RDT, one that
   disconnects mid-stream and reattaches, and a durable stream whose
   daemon is SIGKILL-simulated ([Server.abort]) and restarted. *)

module Runtime = Rdt_core.Runtime
module Registry = Rdt_core.Registry
module Trace = Rdt_obs.Trace
module Online = Rdt_check.Online
module Session = Rdt_check.Session
module W = Rdt_check.Session.Wire
module F = Rdt_check.Session.Frame
module Server = Rdt_serve.Server
module Client = Rdt_serve.Client
module Meter = Rdt_obs.Meter

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Workload material                                                   *)
(* ------------------------------------------------------------------ *)

let recorded ?(n = 5) ?(messages = 120) ~protocol ~seed () =
  let env = Rdt_workloads.Registry.find_exn "random" in
  let tr = Trace.ring ~capacity:200_000 in
  let cfg =
    {
      (Runtime.default_config env (Registry.find_exn protocol)) with
      Runtime.n;
      seed;
      max_messages = messages;
      trace = tr;
    }
  in
  ignore (Runtime.run cfg);
  Trace.events tr

let serial events =
  match Online.check_trace events with
  | Ok t -> t
  | Error e -> Alcotest.failf "serial oracle rejected trace: %s" e

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let scratch_counter = ref 0

(* [f] runs on a fresh directory, removed with everything under it (a
   durable root nests one directory per stream) when [f] returns or raises *)
let with_scratch_dir tag f =
  incr scratch_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rdt-test-serve-%d-%s-%d" (Unix.getpid ()) tag !scratch_counter)
  in
  Unix.mkdir d 0o755;
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let with_scratch_socket tag f = with_scratch_dir tag (fun d -> f (Filename.concat d "s.sock"))

(* ------------------------------------------------------------------ *)
(* In-process pump                                                     *)
(* ------------------------------------------------------------------ *)

type peer = { client : Client.t; mutable inbox : W.response list }

let peer ~socket = { client = Client.connect ~socket; inbox = [] }

let pump server peers pred =
  let budget = ref 200_000 in
  let result = ref None in
  while !result = None do
    decr budget;
    if !budget = 0 then Alcotest.fail "server made no progress";
    ignore (Server.step ~timeout:0.0005 server : int);
    List.iter (fun p -> p.inbox <- p.inbox @ Client.poll p.client) peers;
    result := pred ()
  done;
  Option.get !result

(* Wait until [p]'s inbox holds a response matched by [f]; consume and
   return it (earlier unmatched responses stay queued, in order). *)
let expect server p f =
  pump server [ p ] (fun () ->
      let rec split acc = function
        | [] -> None
        | r :: rest -> (
            match f r with
            | Some v ->
                p.inbox <- List.rev_append acc rest;
                Some v
            | None -> split (r :: acc) rest)
      in
      split [] p.inbox)

let hello server p ~stream ~n =
  Client.send p.client (W.Hello { version = W.version; stream; n });
  expect server p (function W.Welcome { resumed; _ } -> Some resumed | _ -> None)

let goodbye server p =
  Client.send p.client W.Bye;
  expect server p (function
    | W.Goodbye { seen; summary; orphans } -> Some (seen, summary, orphans)
    | _ -> None)

let ask server p ~id query =
  Client.send p.client (W.Query { id; query });
  expect server p (function
    | W.Answer { id = i; answer } when i = id -> Some (Ok answer)
    | W.Failed { id = i; error } when i = id -> Some (Error error)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Wire codec                                                          *)
(* ------------------------------------------------------------------ *)

let roundtrip_requests () =
  let events = recorded ~n:3 ~messages:20 ~protocol:"bhmr" ~seed:7 () in
  let reqs =
    [
      W.Hello { version = 1; stream = "alpha-1._x"; n = 64 };
      W.Events [];
      W.Events events;
      W.Query { id = 0; query = W.Rdt_so_far };
      W.Query { id = 12; query = W.Zcycle };
      W.Query { id = 3; query = W.Summary };
      W.Query { id = 4; query = W.Trackable ((0, 1), (2, 3)) };
      W.Query { id = 5; query = W.Min_gcp [ (0, 0); (1, 2) ] };
      W.Query { id = 6; query = W.Max_gcp [] };
      W.Sync;
      W.Bye;
    ]
  in
  List.iter
    (fun r ->
      match W.decode_request (W.encode_request r) with
      | Ok r' -> check "request roundtrips" true (r = r')
      | Error e -> Alcotest.failf "request failed to roundtrip: %s" e)
    reqs

let roundtrip_responses () =
  let summary = Online.summary (serial (recorded ~n:3 ~messages:20 ~protocol:"bhmr" ~seed:7 ())) in
  let resps =
    [
      W.Welcome { version = 1; stream = "a"; resumed = 0 };
      W.Welcome { version = 1; stream = "a"; resumed = 3140 };
      W.Ack { seen = 0 };
      W.Ack { seen = max_int };
      W.Answer { id = 1; answer = W.Flag true };
      W.Answer { id = 2; answer = W.Flag false };
      W.Answer { id = 3; answer = W.Stats summary };
      W.Answer { id = 4; answer = W.Cut None };
      W.Answer { id = 5; answer = W.Cut (Some [| 0; 3; 1 |]) };
      W.Answer { id = 6; answer = W.Cut (Some [||]) };
      W.Failed { id = 7; error = "checkpoint (9,9) does not exist \"yet\"\n" };
      W.Rejected { code = W.Inconsistent; error = "rolled back twice" };
      W.Rejected { code = W.Unrecoverable; error = "wal: torn record" };
      W.Rejected { code = W.Protocol; error = "frame too large" };
      W.Goodbye { seen = 17; summary; orphans = [] };
      W.Goodbye { seen = 17; summary; orphans = [ 3; 1; 4 ] };
    ]
  in
  List.iter
    (fun r ->
      match W.decode_response (W.encode_response r) with
      | Ok r' -> check "response roundtrips" true (r = r')
      | Error e -> Alcotest.failf "response failed to roundtrip: %s" e)
    resps

let codec_rejects_garbage () =
  List.iter
    (fun s -> check "garbage request rejected" true (Result.is_error (W.decode_request s)))
    [ ""; "null"; "[]"; "{}"; {|{"type":"warp"}|}; {|{"type":"hello","version":1}|} ];
  List.iter
    (fun s -> check "garbage response rejected" true (Result.is_error (W.decode_response s)))
    [ ""; "true"; {|{"type":"ack"}|}; {|{"type":"answer","id":0}|} ]

(* Random bodies: events from [Gen.trace_event] (all 11 kinds, min_int
   and max_int), strings empty to a few hundred bytes. *)
let any_int =
  QCheck.Gen.(oneof [ int; oneofl [ min_int; max_int; 0; -1; 1; 127; 128; -64; -65 ] ])

let any_string =
  QCheck.Gen.(
    oneof [ string_size ~gen:char (int_bound 12); string_size ~gen:char (int_range 200 400) ])

let gen_request =
  let open QCheck.Gen in
  let ckpt = pair any_int any_int in
  let set = list_size (int_bound 6) ckpt in
  let query =
    oneof
      [
        oneofl [ W.Rdt_so_far; W.Zcycle; W.Summary ];
        map2 (fun a b -> W.Trackable (a, b)) ckpt ckpt;
        map (fun s -> W.Min_gcp s) set;
        map (fun s -> W.Max_gcp s) set;
      ]
  in
  oneof
    [
      map3 (fun version stream n -> W.Hello { version; stream; n }) any_int any_string any_int;
      map (fun evs -> W.Events evs) (list_size (int_bound 40) Rdt_test_helpers.Gen.trace_event);
      map2 (fun id query -> W.Query { id; query }) any_int query;
      oneofl [ W.Sync; W.Bye ];
    ]

let gen_response =
  let open QCheck.Gen in
  let summary =
    map
      (fun ((events, checkpoints, rdt), (first_violation, zcycle, rebuilds)) ->
        { Online.events; checkpoints; rdt; first_violation; zcycle; rebuilds })
      (pair (triple any_int any_int bool) (triple (opt any_int) bool any_int))
  in
  let answer =
    oneof
      [
        map (fun b -> W.Flag b) bool;
        map (fun s -> W.Stats s) summary;
        map (fun c -> W.Cut c) (opt (array_size (int_bound 20) any_int));
      ]
  in
  oneof
    [
      map3
        (fun version stream resumed -> W.Welcome { version; stream; resumed })
        any_int any_string any_int;
      map (fun seen -> W.Ack { seen }) any_int;
      map2 (fun id answer -> W.Answer { id; answer }) any_int answer;
      map2 (fun id error -> W.Failed { id; error }) any_int any_string;
      map2
        (fun code error -> W.Rejected { code; error })
        (oneofl [ W.Inconsistent; W.Unrecoverable; W.Protocol ])
        any_string;
      map3
        (fun seen summary orphans -> W.Goodbye { seen; summary; orphans })
        any_int summary
        (list_size (int_bound 8) any_int);
    ]

let body_arb gen encode = QCheck.make ~print:(fun x -> String.escaped (encode x)) gen

(* The body decodes to the value; every strict prefix of it and the body
   with one more byte decode to [Error]. *)
let strict encode decode x =
  let body = encode x in
  (match decode body with
  | Ok x' when x' = x -> ()
  | Ok _ -> QCheck.Test.fail_reportf "decoded to a different value"
  | Error e -> QCheck.Test.fail_reportf "roundtrip failed: %s" e);
  for len = 0 to String.length body - 1 do
    if Result.is_ok (decode (String.sub body 0 len)) then
      QCheck.Test.fail_reportf "the %d-byte prefix decoded" len
  done;
  if Result.is_ok (decode (body ^ "\x00")) then QCheck.Test.fail_reportf "trailing byte accepted";
  true

let qcheck_requests_strict =
  QCheck.Test.make ~count:400 ~name:"random requests roundtrip; prefixes and extra bytes fail"
    (body_arb gen_request W.encode_request) (fun req ->
      match req with
      | W.Hello { version; _ } when version > W.version ->
          (* read up to its version on purpose, whatever follows *)
          W.decode_request (W.encode_request req) = Ok req
      | _ -> strict W.encode_request W.decode_request req)

let qcheck_responses_strict =
  QCheck.Test.make ~count:400 ~name:"random responses roundtrip; prefixes and extra bytes fail"
    (body_arb gen_response W.encode_response)
    (strict W.encode_response W.decode_response)

(* Random bytes, and valid bodies with one byte replaced: [Ok] or
   [Error], never an exception. *)
let qcheck_bytes_never_raise =
  let gen =
    QCheck.Gen.(
      oneof
        [
          string_size ~gen:char (int_bound 64);
          map2
            (fun tag s -> String.make 1 (Char.chr tag) ^ s)
            (int_bound 6)
            (string_size ~gen:char (int_bound 64));
          map3
            (fun req pos byte ->
              let b = Bytes.of_string (W.encode_request req) in
              Bytes.set b (pos mod Bytes.length b) byte;
              Bytes.to_string b)
            gen_request nat char;
        ])
  in
  QCheck.Test.make ~count:2000 ~name:"random bytes decode to Ok or Error"
    (QCheck.make ~print:String.escaped gen) (fun s ->
      ignore (W.decode_request s : (W.request, string) result);
      ignore (W.decode_response s : (W.response, string) result);
      true)

(* [k] events of the shortest record, a 3-byte [Internal]: at 349,524
   they make a 1 MiB body. *)
let internal_events k = W.Events (List.init k (fun _ -> Trace.Internal { pid = 0; time = 0 }))

let one_mib_body = lazy (W.encode_request (internal_events (((1 lsl 20) - 4) / 3)))

let codec_bounds_events () =
  let body = Lazy.force one_mib_body in
  Alcotest.(check int) "a 1 MiB body" (1 lsl 20) (String.length body);
  (match W.decode_request body with
  | Ok _ -> Alcotest.fail "a 1 MiB body of 349,524 events decoded"
  | Error e -> check "refused on its count" true (String.starts_with ~prefix:"349524 events" e));
  let at_bound = internal_events W.max_events in
  check "the bound itself decodes" true (W.decode_request (W.encode_request at_bound) = Ok at_bound);
  check "one past the bound is refused" true
    (Result.is_error (W.decode_request (W.encode_request (internal_events (W.max_events + 1)))))

let codec_rejects_overlong_and_v1 () =
  let overlong = String.make 9 '\xff' ^ "\x01" in
  List.iter
    (fun (label, body) ->
      check (label ^ " rejected") true (Result.is_error (W.decode_request body)))
    [
      ("overlong query id", "\x02" ^ overlong);
      ("overlong events count", "\x01" ^ overlong);
      ("overlong hello n", "\x00\x04\x01a" ^ overlong);
      ("events count past the body", "\x01\x80\x80\x80\x80\x80\x80\x40");
    ];
  List.iter
    (fun (label, body) ->
      check (label ^ " rejected") true (Result.is_error (W.decode_response body)))
    [ ("overlong ack", "\x01" ^ overlong); ("overlong cut length", "\x02\x00\x03" ^ overlong) ];
  (* a version-1 JSON body names both versions *)
  let v1 =
    Error (Printf.sprintf "a version-1 (JSON) frame; this peer speaks version %d only" W.version)
  in
  check "v1 hello refused by name" true
    (W.decode_request {|{"req":"hello","v":1,"stream":"s","n":3}|} = v1);
  check "v1 ack refused by name" true (W.decode_response {|{"resp":"ack","seen":3}|} = v1);
  (* a later version's hello is read up to its version, whatever follows *)
  match W.decode_request ("\x00" ^ "\x06" ^ "\xff\xfe") with
  | Ok (W.Hello { version = 3; _ }) -> ()
  | _ -> Alcotest.fail "a version-3 hello is not read up to its version"

let exit_codes () =
  Alcotest.(check int) "inconsistent" 2 (W.exit_code_of_reject W.Inconsistent);
  Alcotest.(check int) "protocol" 2 (W.exit_code_of_reject W.Protocol);
  Alcotest.(check int) "unrecoverable" 3 (W.exit_code_of_reject W.Unrecoverable)

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let frame_chunked () =
  let payloads = [ "alpha"; ""; String.make 70_000 'z'; "{\"k\":\"v\"}" ] in
  let wire = String.concat "" (List.map F.encode payloads) in
  (* feed byte by byte, then in ragged chunks: same frames out *)
  List.iter
    (fun chunk ->
      let d = F.decoder () in
      let b = Bytes.of_string wire in
      let i = ref 0 in
      let out = ref [] in
      while !i < Bytes.length b do
        let len = min chunk (Bytes.length b - !i) in
        F.feed d b ~off:!i ~len;
        i := !i + len;
        let rec drain () =
          match F.next d with
          | Ok (Some p) ->
              out := p :: !out;
              drain ()
          | Ok None -> ()
          | Error e -> Alcotest.failf "decoder error on well-formed input: %s" e
        in
        drain ()
      done;
      check
        (Printf.sprintf "chunk size %d reproduces frames" chunk)
        true
        (List.rev !out = payloads);
      Alcotest.(check int) "nothing left buffered" 0 (F.buffered d))
    [ 1; 7; 4096; String.length wire ]

let frame_malformed () =
  let bad =
    [
      "x5 hello\n" (* non-digit length *);
      "99999999999 hi\n" (* length over max_payload (and over 9 digits) *);
      "5,hello\n" (* no separating space *);
      F.encode "hi" ^ "3 abcX" (* wrong terminator on the second frame *);
    ]
  in
  List.iter
    (fun s ->
      let d = F.decoder () in
      F.feed d (Bytes.of_string s) ~off:0 ~len:(String.length s);
      let rec drain () =
        match F.next d with Ok (Some _) -> drain () | (Ok None | Error _) as r -> r
      in
      check "malformed framing detected" true (Result.is_error (drain ()));
      (* poisoned: stays in error even with more (valid) bytes *)
      let v = F.encode "ok" in
      F.feed d (Bytes.of_string v) ~off:0 ~len:(String.length v);
      check "decoder poisoned after framing error" true (Result.is_error (F.next d)))
    bad

(* ------------------------------------------------------------------ *)
(* Protocol-level rejection                                            *)
(* ------------------------------------------------------------------ *)

let with_server ?mapper ?trace cfg f =
  let server = Server.create ?mapper ?trace ~meter:(Meter.create ()) cfg in
  Fun.protect ~finally:(fun () -> Server.close server) (fun () -> f server)

let rejected server p =
  expect server p (function W.Rejected { code; error } -> Some (code, error) | _ -> None)

let test_hello_rejections () =
  with_scratch_socket "hello" @@ fun socket ->
  with_server (Server.default_config ~socket) (fun server ->
      (* wrong protocol version *)
      let p = peer ~socket in
      Client.send p.client (W.Hello { version = W.version + 1; stream = "a"; n = 3 });
      let code, _ = rejected server p in
      check "future version refused" true (code = W.Protocol);
      Client.close p.client;
      (* bad stream names *)
      List.iter
        (fun stream ->
          let p = peer ~socket in
          Client.send p.client (W.Hello { version = W.version; stream; n = 3 });
          let code, _ = rejected server p in
          check (Printf.sprintf "stream name %S refused" stream) true (code = W.Protocol);
          Client.close p.client)
        [ ""; ".hidden"; "-dash"; "sp ace"; "a/b"; String.make 101 'a' ];
      (* events before hello *)
      let p = peer ~socket in
      Client.send p.client (W.Events []);
      let code, _ = rejected server p in
      check "events before hello refused" true (code = W.Protocol);
      Client.close p.client;
      (* n mismatch on reattach *)
      let p = peer ~socket in
      ignore (hello server p ~stream:"s" ~n:4 : int);
      Client.close p.client;
      ignore (pump server [] (fun () -> if Server.step server = 0 then Some () else None));
      let q = peer ~socket in
      Client.send q.client (W.Hello { version = W.version; stream = "s"; n = 5 });
      let code, _ = rejected server q in
      check "n mismatch on reattach refused" true (code = W.Protocol);
      Client.close q.client)

(* Dial the daemon with a raw socket, write [payload] as one frame
   between server steps (a large frame outgrows the socket buffer), and
   return the first reply: for frames the typed [Client] cannot produce,
   or cannot write without a server loop running beside it. *)
let raw_reply server ~socket payload =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Rdt_durable.Io.close_noerr fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Unix.set_nonblock fd;
  let frame = F.encode payload in
  let written = ref 0 in
  let dec = F.decoder () and buf = Bytes.create 4096 in
  pump server [] (fun () ->
      let left = String.length frame - !written in
      (if left > 0 then
         match Rdt_durable.Io.send_substring fd frame !written left with
         | k -> written := !written + k
         | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
      match Unix.select [ fd ] [] [] 0. with
      | [], _, _ -> None
      | _ -> (
          let got = Rdt_durable.Io.recv fd buf 0 (Bytes.length buf) in
          F.feed dec buf ~off:0 ~len:got;
          match F.next dec with Ok p -> p | Error e -> Alcotest.failf "bad frame: %s" e))

let refused_as_protocol what reply =
  match W.decode_response reply with
  | Ok (W.Rejected { code = W.Protocol; error }) -> error
  | Ok _ -> Alcotest.failf "%s not rejected as a protocol error" what
  | Error e -> Alcotest.failf "undecodable reply: %s" e

(* A version-1 client speaks JSON, which [Client] cannot. *)
let test_v1_hello_refused () =
  with_scratch_dir "v1" @@ fun dir ->
  let socket = Filename.concat dir "s.sock" and root = Filename.concat dir "state" in
  with_server { (Server.default_config ~socket) with Server.durable_root = Some root }
  @@ fun server ->
  let reply = raw_reply server ~socket {|{"req":"hello","v":1,"stream":"old","n":3}|} in
  ignore (refused_as_protocol "v1 hello" reply : string);
  check "no stream" true (Server.streams server = []);
  check "no stream directory" true (Sys.readdir root = [||])

(* An [Events] body past [Wire.max_events] is refused as it is decoded,
   ahead of the first-frame check, so it creates nothing. *)
let test_oversized_events_refused () =
  with_scratch_socket "oversized" @@ fun socket ->
  with_server (Server.default_config ~socket) @@ fun server ->
  let reply = raw_reply server ~socket (Lazy.force one_mib_body) in
  let error = refused_as_protocol "a 1 MiB events body" reply in
  check "refused on its count" true (String.starts_with ~prefix:"bad request: 349524 events" error);
  check "no stream" true (Server.streams server = [])

(* ------------------------------------------------------------------ *)
(* Differential: served verdicts = serial Online.check_trace           *)
(* ------------------------------------------------------------------ *)

let stream_specs =
  [
    ("rdt-bhmr-3", "bhmr", 3);
    ("rdt-bhmr-8", "bhmr", 8);
    ("violating-none-1", "none", 1);
    ("violating-none-2", "none", 2);
    ("rdt-bcs", "bcs", 5);
  ]

let test_differential () =
  with_scratch_socket "diff" @@ fun socket ->
  let n = 4 in
  let material =
    List.map
      (fun (name, protocol, seed) ->
        let events = recorded ~n ~messages:60 ~protocol ~seed () in
        (name, events, Online.summary (serial events)))
      stream_specs
  in
  (* the violating streams must actually violate, or this is vacuous *)
  check "a stream violates RDT" true
    (List.exists (fun (_, _, s) -> s.Online.first_violation <> None) material);
  check "a stream keeps RDT" true (List.exists (fun (_, _, s) -> s.Online.rdt) material);
  with_server (Server.default_config ~socket) (fun server ->
      let peers = List.map (fun (name, events, expected) -> (peer ~socket, name, events, expected)) material in
      (* all concurrently: hello, then interleaved event batches *)
      List.iter
        (fun (p, name, _, _) ->
          Alcotest.(check int) "fresh stream" 0 (hello server p ~stream:name ~n))
        peers;
      let rec batches evs = match evs with
        | [] -> []
        | _ ->
            let rec take k acc = function
              | rest when k = 0 -> (List.rev acc, rest)
              | [] -> (List.rev acc, [])
              | e :: rest -> take (k - 1) (e :: acc) rest
            in
            let b, rest = take 37 [] evs in
            b :: batches rest
      in
      let queues = List.map (fun (p, _, events, _) -> (p, ref (batches events))) peers in
      let busy () = List.exists (fun (_, q) -> !q <> []) queues in
      while busy () do
        List.iter
          (fun (p, q) ->
            match !q with
            | [] -> ()
            | b :: rest ->
                Client.send p.client (W.Events b);
                q := rest)
          queues;
        ignore (Server.step server : int);
        List.iter (fun (p, _) -> p.inbox <- p.inbox @ Client.poll p.client) queues
      done;
      List.iter
        (fun (p, name, events, expected) ->
          let seen, summary, orphans = goodbye server p in
          Alcotest.(check int) (name ^ ": all events applied") (List.length events) seen;
          check (name ^ ": served summary = serial summary") true (summary = expected);
          check (name ^ ": no orphans at end of run") true (orphans = []);
          Client.close p.client)
        peers)

(* ------------------------------------------------------------------ *)
(* Queries against offline oracles                                     *)
(* ------------------------------------------------------------------ *)

let test_queries_vs_oracles () =
  with_scratch_socket "query" @@ fun socket ->
  let n = 5 in
  let events = recorded ~n ~messages:150 ~protocol:"bhmr" ~seed:11 () in
  let oracle = serial events in
  let pat =
    match Rdt_obs.Replay.rebuild events with
    | Ok pat -> pat
    | Error e -> Alcotest.failf "replay rejected trace: %s" e
  in
  with_server (Server.default_config ~socket) (fun server ->
      let p = peer ~socket in
      ignore (hello server p ~stream:"q" ~n : int);
      Client.send p.client (W.Events events);
      (match ask server p ~id:0 W.Rdt_so_far with
      | Ok (W.Flag b) -> check "rdt_so_far matches" true (b = Online.rdt_so_far oracle)
      | r -> Alcotest.failf "rdt_so_far: unexpected %s" (match r with Error e -> e | _ -> "answer"));
      (match ask server p ~id:1 W.Zcycle with
      | Ok (W.Flag b) -> check "zcycle matches" true (b = Online.zcycle oracle)
      | _ -> Alcotest.fail "zcycle: unexpected answer");
      (match ask server p ~id:2 W.Summary with
      | Ok (W.Stats s) -> check "summary matches" true (s = Online.summary oracle)
      | _ -> Alcotest.fail "summary: unexpected answer");
      (* trackability, including checkpoints beyond the initial ones *)
      let id = ref 10 in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          incr id;
          match ask server p ~id:!id (W.Trackable ((i, 1), (j, 1))) with
          | Ok (W.Flag b) ->
              check
                (Printf.sprintf "trackable (%d,1) (%d,1) matches" i j)
                true
                (b = Online.trackable oracle (i, 1) (j, 1))
          | Error e -> Alcotest.failf "trackable: %s" e
          | _ -> Alcotest.fail "trackable: unexpected answer"
        done
      done;
      (* min/max consistent global checkpoints vs the Replay pattern *)
      List.iter
        (fun set ->
          incr id;
          (match ask server p ~id:!id (W.Min_gcp set) with
          | Ok (W.Cut c) ->
              check "min gcp matches Replay oracle" true (c = Rdt_core.Min_gcp.minimum_of_set pat set)
          | _ -> Alcotest.fail "min gcp: unexpected answer");
          incr id;
          match ask server p ~id:!id (W.Max_gcp set) with
          | Ok (W.Cut c) ->
              check "max gcp matches Replay oracle" true (c = Rdt_core.Min_gcp.maximum_of_set pat set)
          | _ -> Alcotest.fail "max gcp: unexpected answer")
        [ [ (0, 0) ]; [ (0, 1); (1, 1) ]; [ (2, 1); (3, 1); (4, 1) ] ];
      (* a query about a checkpoint that does not exist fails the query,
         not the stream *)
      incr id;
      (match ask server p ~id:!id (W.Trackable ((0, 9999), (1, 0))) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "phantom checkpoint should fail the query");
      incr id;
      (match ask server p ~id:!id W.Rdt_so_far with
      | Ok (W.Flag _) -> ()
      | _ -> Alcotest.fail "stream must survive a failed query");
      let seen, summary, _ = goodbye server p in
      Alcotest.(check int) "all events applied" (List.length events) seen;
      check "final summary still matches" true (summary = Online.summary oracle);
      Client.close p.client)

(* ------------------------------------------------------------------ *)
(* Disconnect / reattach                                               *)
(* ------------------------------------------------------------------ *)

let test_reattach_mid_stream () =
  with_scratch_socket "reattach" @@ fun socket ->
  let n = 4 in
  (* the violating stream: the disconnect lands mid-cascade for some
     split points, the reattached client must still converge *)
  List.iter
    (fun (protocol, seed) ->
      let events = recorded ~n ~messages:60 ~protocol ~seed () in
      let expected = Online.summary (serial events) in
      let total = List.length events in
      List.iter
        (fun split ->
          let split = min split total in
          let prefix = List.filteri (fun i _ -> i < split) events in
          let suffix = List.filteri (fun i _ -> i >= split) events in
          let stream = Printf.sprintf "re-%s-%d-%d" protocol seed split in
          with_server (Server.default_config ~socket) (fun server ->
              let p = peer ~socket in
              Alcotest.(check int) "fresh stream" 0 (hello server p ~stream ~n);
              Client.send p.client (W.Events prefix);
              Client.send p.client W.Sync;
              ignore
                (expect server p (function W.Ack { seen } when seen = split -> Some () | _ -> None));
              (* drop the connection without Bye — the stream survives *)
              Client.close p.client;
              ignore (pump server [] (fun () -> if Server.step server = 0 then Some () else None));
              check "stream survives disconnect" true (List.mem stream (Server.streams server));
              let q = peer ~socket in
              Alcotest.(check int) "reattach resumes at the applied prefix" split
                (hello server q ~stream ~n);
              Client.send q.client (W.Events suffix);
              let seen, summary, orphans = goodbye server q in
              Alcotest.(check int) "all events applied" total seen;
              check "resumed summary = serial summary" true (summary = expected);
              check "no orphans at end of run" true (orphans = []);
              Client.close q.client))
        [ 1; 17; total / 2; total - 1 ])
    [ ("bhmr", 3); ("none", 1) ]

(* ------------------------------------------------------------------ *)
(* Backpressure                                                        *)
(* ------------------------------------------------------------------ *)

let test_backpressure () =
  with_scratch_socket "bp" @@ fun socket ->
  let n = 4 in
  let events = recorded ~n ~messages:120 ~protocol:"bhmr" ~seed:5 () in
  let expected = Online.summary (serial events) in
  let meter = Meter.create () in
  let cfg = { (Server.default_config ~socket) with Server.max_batch = 8; max_pending = 16 } in
  let server = Server.create ~meter cfg in
  Fun.protect ~finally:(fun () -> Server.close server) @@ fun () ->
  let p = peer ~socket in
  ignore (hello server p ~stream:"bp" ~n : int);
  (* many small frames: the pending queue must stay within
     max_pending + one frame even though the client floods *)
  let max_depth = ref 0 in
  let rec flood evs =
    match evs with
    | [] -> ()
    | _ ->
        let rec take k acc = function
          | rest when k = 0 -> (List.rev acc, rest)
          | [] -> (List.rev acc, [])
          | e :: rest -> take (k - 1) (e :: acc) rest
        in
        let frame, rest = take 4 [] evs in
        Client.send p.client (W.Events frame);
        ignore (Server.step server : int);
        (match List.assoc_opt "gauge:serve.queue_depth" (Meter.counters meter) with
        | Some d -> max_depth := max !max_depth d
        | None -> ());
        p.inbox <- p.inbox @ Client.poll p.client;
        flood rest
  in
  flood events;
  let seen, summary, _ = goodbye server p in
  Alcotest.(check int) "all events applied" (List.length events) seen;
  check "flooded summary = serial summary" true (summary = expected);
  check
    (Printf.sprintf "queue depth bounded (max seen %d)" !max_depth)
    true
    (!max_depth <= cfg.Server.max_pending + 4);
  Client.close p.client

(* Queued events must not wait out the poll timeout: with the stream's
   socket dropped from the read set by backpressure, a blocking poll
   would idle through the whole tick while [max_batch] bounds each apply. *)
let test_queued_work_does_not_stall () =
  with_scratch_socket "stall" @@ fun socket ->
  let n = 4 in
  let events = recorded ~n ~messages:120 ~protocol:"bhmr" ~seed:5 () in
  let meter = Meter.create () in
  let cfg = { (Server.default_config ~socket) with Server.max_batch = 8; max_pending = 16 } in
  let server = Server.create ~meter cfg in
  Fun.protect ~finally:(fun () -> Server.close server) @@ fun () ->
  let p = peer ~socket in
  ignore (hello server p ~stream:"stall" ~n : int);
  Client.send p.client (W.Events events);
  let depth () =
    Option.value ~default:0 (List.assoc_opt "gauge:serve.queue_depth" (Meter.counters meter))
  in
  ignore (pump server [] (fun () -> if depth () > cfg.Server.max_pending then Some () else None));
  let start = Meter.now () in
  ignore (Server.step ~timeout:5. server : int);
  let took = Meter.now () -. start in
  check (Printf.sprintf "step with queued work returned in %.3f s" took) true (took < 1.);
  let seen, _, _ = goodbye server p in
  Alcotest.(check int) "all events applied" (List.length events) seen;
  Client.close p.client

(* ------------------------------------------------------------------ *)
(* Durable crash + recovery                                            *)
(* ------------------------------------------------------------------ *)

let test_durable_crash_resume () =
  let n = 4 in
  let events = recorded ~n ~messages:80 ~protocol:"bhmr" ~seed:9 () in
  let expected = Online.summary (serial events) in
  let total = List.length events in
  with_scratch_dir "crash" @@ fun dir ->
  let socket = Filename.concat dir "s.sock" in
  let cfg =
    {
      (Server.default_config ~socket) with
      Server.durable_root = Some (Filename.concat dir "state");
      snapshot_every = 40;
    }
  in
  let split = total / 2 in
  let prefix = List.filteri (fun i _ -> i < split) events in
  (* first daemon: applies the prefix, then dies without syncing *)
  let server = Server.create ~meter:(Meter.create ()) cfg in
  let p = peer ~socket in
  Alcotest.(check int) "fresh stream" 0 (hello server p ~stream:"crashy" ~n);
  Client.send p.client (W.Events prefix);
  ignore
    (expect server p (function W.Ack { seen } when seen = split -> Some () | _ -> None));
  Client.close p.client;
  Server.abort server;
  (* second daemon, same root: the stream recovers from WAL + snapshots *)
  let server = Server.create ~meter:(Meter.create ()) cfg in
  Fun.protect ~finally:(fun () -> Server.close server) @@ fun () ->
  let q = peer ~socket in
  let resumed = hello server q ~stream:"crashy" ~n in
  check
    (Printf.sprintf "recovery kept a durable prefix (resumed %d of %d applied)" resumed split)
    true
    (resumed > 0 && resumed <= split);
  (* the client skips what the daemon kept and replays the rest *)
  let rest = List.filteri (fun i _ -> i >= resumed) events in
  Client.send q.client (W.Events rest);
  let seen, summary, orphans = goodbye server q in
  Alcotest.(check int) "all events applied after recovery" total seen;
  check "recovered summary = serial summary" true (summary = expected);
  check "no orphans" true (orphans = []);
  Client.close q.client

(* The [Ack] answering [Sync] promises durability: a daemon killed after
   it (no graceful detach, no close) recovers at least [seen] events.  No
   snapshot is installed in this stream, so what survives comes from the
   WAL alone; the events applied after the sync, under 4 KiB of records,
   never left the pending buffer and die with the daemon. *)
let test_sync_ack_survives_kill () =
  let n = 4 in
  let events = recorded ~n ~messages:80 ~protocol:"bhmr" ~seed:10 () in
  let expected = Online.summary (serial events) in
  let total = List.length events in
  with_scratch_dir "sync-ack" @@ fun dir ->
  let socket = Filename.concat dir "s.sock" in
  let cfg =
    {
      (Server.default_config ~socket) with
      Server.durable_root = Some (Filename.concat dir "state");
      snapshot_every = total + 1;
    }
  in
  let first = total / 3 and second = 2 * total / 3 in
  let slice lo hi = List.filteri (fun i _ -> lo <= i && i < hi) events in
  let server = Server.create ~meter:(Meter.create ()) cfg in
  let p = peer ~socket in
  Alcotest.(check int) "fresh stream" 0 (hello server p ~stream:"synced" ~n);
  let acked k = expect server p (function W.Ack { seen } when seen = k -> Some () | _ -> None) in
  Client.send p.client (W.Events (slice 0 first));
  Client.send p.client W.Sync;
  (* the batch that applies event [first] acks it, then the sync does *)
  acked first;
  acked first;
  Client.send p.client (W.Events (slice first second));
  acked second;
  Server.abort server;
  Client.close p.client;
  let server = Server.create ~meter:(Meter.create ()) cfg in
  Fun.protect ~finally:(fun () -> Server.close server) @@ fun () ->
  let q = peer ~socket in
  let resumed = hello server q ~stream:"synced" ~n in
  check
    (Printf.sprintf "every synced event survived (resumed %d, synced %d, applied %d)" resumed
       first second)
    true
    (first <= resumed && resumed <= second);
  (* the unsynced slice's records fit in the WAL's 4 KiB kernel hand-off,
     so the kill took all of them: the abort did not sync *)
  let unsynced =
    List.fold_left
      (fun acc ev -> acc + Rdt_durable.Wal.add_record (Rdt_obs.Codec.Writer.create ()) ev)
      0 (slice first second)
  in
  check "the unsynced slice fits in one hand-off" true (unsynced < 4096);
  Alcotest.(check int) "the kill lost every unsynced event" first resumed;
  Client.send q.client (W.Events (slice resumed total));
  let seen, summary, orphans = goodbye server q in
  Alcotest.(check int) "all events applied after recovery" total seen;
  check "recovered summary = serial summary" true (summary = expected);
  check "no orphans" true (orphans = []);
  Client.close q.client

(* ------------------------------------------------------------------ *)

let () =
  (* a dropped in-process connection must never kill the test runner *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> ());
  Alcotest.run "serve"
    [
      ( "wire",
        [
          Alcotest.test_case "requests roundtrip" `Quick roundtrip_requests;
          Alcotest.test_case "responses roundtrip" `Quick roundtrip_responses;
          Alcotest.test_case "garbage rejected" `Quick codec_rejects_garbage;
          Alcotest.test_case "overlong varints and v1 bodies rejected" `Quick
            codec_rejects_overlong_and_v1;
          Alcotest.test_case "events bodies are bounded" `Quick codec_bounds_events;
          QCheck_alcotest.to_alcotest qcheck_requests_strict;
          QCheck_alcotest.to_alcotest qcheck_responses_strict;
          QCheck_alcotest.to_alcotest qcheck_bytes_never_raise;
          Alcotest.test_case "exit-code table" `Quick exit_codes;
        ] );
      ( "framing",
        [
          Alcotest.test_case "any chunking reproduces frames" `Quick frame_chunked;
          Alcotest.test_case "malformed framing poisons the decoder" `Quick frame_malformed;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "hello rejections" `Quick test_hello_rejections;
          Alcotest.test_case "v1 JSON hello refused by a durable server" `Quick
            test_v1_hello_refused;
          Alcotest.test_case "oversized events body refused" `Quick
            test_oversized_events_refused;
        ] );
      ( "differential",
        [
          Alcotest.test_case "N served streams = serial checker" `Quick test_differential;
          Alcotest.test_case "queries match offline oracles" `Quick test_queries_vs_oracles;
          Alcotest.test_case "disconnect + reattach converges" `Quick test_reattach_mid_stream;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "backpressure bounds the queue" `Quick test_backpressure;
          Alcotest.test_case "queued work is applied without waiting" `Quick
            test_queued_work_does_not_stall;
          Alcotest.test_case "durable crash + resume" `Quick test_durable_crash_resume;
          Alcotest.test_case "synced ack survives a kill" `Quick test_sync_ack_survives_kill;
        ] );
    ]
