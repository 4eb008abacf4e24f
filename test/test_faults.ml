(* Property suite for the network-fault substrate.

   Headline: for every protocol in the registry, over several
   environments and every point of a drop/dup/partition grid, runs
   terminate with every message either delivered or reported
   undeliverable, the three offline checkers agree, and RDT still holds
   for every protocol that promises it.  Plus unit tests for the fault
   spec, the reliable transport in isolation, determinism per fault
   kind, and config validation. *)

module Runtime = Rdt_core.Runtime
module Checker = Rdt_core.Checker
module Registry = Rdt_core.Registry
module Protocol = Rdt_core.Protocol
module Faults = Rdt_dist.Faults
module Transport = Rdt_dist.Transport
module Channel = Rdt_dist.Channel
module Rng = Rdt_dist.Rng
module EQ = Rdt_dist.Event_queue

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Fault spec                                                          *)
(* ------------------------------------------------------------------ *)

let test_faults_validate () =
  let ok s = Faults.validate ~n:4 s = Ok () in
  check "none ok" true (ok Faults.none);
  check "drop ok" true (ok { Faults.none with drop = 0.5 });
  check "drop > 1" false (ok { Faults.none with drop = 1.5 });
  check "dup < 0" false (ok { Faults.none with dup = -0.1 });
  check "reorder needs window" false (ok { Faults.none with reorder = 0.2 });
  check "reorder with window" true (ok { Faults.none with reorder = 0.2; reorder_window = 10 });
  let part between from_t to_t =
    { Faults.none with partitions = [ { Faults.between; from_t; to_t } ] }
  in
  check "partition ok" true (ok (part [ 1; 2 ] 10 20));
  check "partition pid out of range" false (ok (part [ 4 ] 10 20));
  check "partition empty group" false (ok (part [] 10 20));
  check "partition backwards window" false (ok (part [ 1 ] 20 10))

let test_faults_cuts () =
  let s =
    { Faults.none with partitions = [ { Faults.between = [ 1; 2 ]; from_t = 10; to_t = 20 } ] }
  in
  check "cross link inside window" true (Faults.cuts s ~time:10 ~src:0 ~dst:1);
  check "bidirectional" true (Faults.cuts s ~time:15 ~src:1 ~dst:0);
  check "healed at to_t" false (Faults.cuts s ~time:20 ~src:0 ~dst:1);
  check "before from_t" false (Faults.cuts s ~time:9 ~src:0 ~dst:1);
  check "inside the group" false (Faults.cuts s ~time:15 ~src:1 ~dst:2);
  check "among the rest" false (Faults.cuts s ~time:15 ~src:0 ~dst:3);
  check "no partitions" false (Faults.cuts Faults.none ~time:15 ~src:0 ~dst:1)

(* ------------------------------------------------------------------ *)
(* Transport in isolation                                              *)
(* ------------------------------------------------------------------ *)

(* Drive the passive transport with a local event queue until it drains. *)
let drive tp q delivered undeliv =
  let apply now emits =
    ignore now;
    List.iter
      (function
        | Transport.Deliver { msg; _ } -> delivered := msg :: !delivered
        | Transport.Wire { at; wire } -> EQ.schedule q ~time:at wire
        | Transport.Undeliverable { msg; _ } -> undeliv := msg :: !undeliv)
      emits
  in
  let rec loop () =
    match EQ.pop q with
    | None -> ()
    | Some (t, w) ->
        apply t (Transport.handle tp ~now:t w);
        loop ()
  in
  (apply, loop)

let test_transport_fifo_exactly_once () =
  let faults =
    { Faults.none with drop = 0.25; dup = 0.2; reorder = 0.3; reorder_window = 40 }
  in
  let tp =
    Transport.create ~n:2 ~params:Transport.default_params ~faults
      ~channel:(Channel.Uniform (5, 60)) ~rng:(Rng.create 42) ()
  in
  let q = EQ.create () in
  let delivered = ref [] and undeliv = ref [] in
  let apply, loop = drive tp q delivered undeliv in
  for i = 0 to 199 do
    apply 0 (Transport.send tp ~now:0 ~src:0 ~dst:1 i)
  done;
  loop ();
  Alcotest.(check int) "drained" 0 (Transport.in_flight tp);
  let got = List.rev !delivered in
  Alcotest.(check int) "every message accounted for" 200
    (List.length got + List.length !undeliv);
  check "exactly-once and FIFO" true (got = List.sort_uniq compare got);
  let s = Transport.stats tp in
  check "faults were exercised" true
    (s.Transport.packets_dropped > 0 && s.Transport.duplicated > 0 && s.Transport.reordered > 0);
  Alcotest.(check int) "stats agree with deliveries" (List.length got) s.Transport.delivered

let test_transport_partition_heals () =
  (* the link is dead for the first 2000 ticks; retransmission with
     backoff must carry every message across the healing *)
  let faults =
    { Faults.none with partitions = [ { Faults.between = [ 1 ]; from_t = 0; to_t = 2000 } ] }
  in
  let tp =
    Transport.create ~n:2 ~params:Transport.default_params ~faults
      ~channel:(Channel.Uniform (5, 60)) ~rng:(Rng.create 7) ()
  in
  let q = EQ.create () in
  let delivered = ref [] and undeliv = ref [] in
  let apply, loop = drive tp q delivered undeliv in
  for i = 0 to 19 do
    apply 0 (Transport.send tp ~now:0 ~src:0 ~dst:1 i)
  done;
  loop ();
  Alcotest.(check (list int)) "all delivered in order after the heal"
    (List.init 20 (fun i -> i))
    (List.rev !delivered);
  check "nothing abandoned" true (!undeliv = [])

let test_transport_gives_up () =
  (* a fully dead link: every message must come back as Undeliverable,
     in finite time, and the transport must drain *)
  let faults = { Faults.none with drop = 1.0 } in
  let tp =
    Transport.create ~n:2
      ~params:{ Transport.default_params with max_retx = 3 }
      ~faults ~channel:(Channel.Uniform (5, 60)) ~rng:(Rng.create 3) ()
  in
  let q = EQ.create () in
  let delivered = ref [] and undeliv = ref [] in
  let apply, loop = drive tp q delivered undeliv in
  for i = 0 to 9 do
    apply 0 (Transport.send tp ~now:0 ~src:0 ~dst:1 i)
  done;
  loop ();
  check "nothing delivered" true (!delivered = []);
  Alcotest.(check int) "all abandoned" 10 (List.length !undeliv);
  Alcotest.(check int) "drained" 0 (Transport.in_flight tp)

(* [in_flight] counts messages until they are acknowledged, not until
   they are delivered: the runtime keeps taking basic checkpoints while it
   is positive, and that window includes the ack's trip back. *)
let test_transport_in_flight_until_acked () =
  let tp =
    Transport.create ~n:2 ~params:Transport.default_params ~faults:Faults.none
      ~channel:(Channel.Fixed 10) ~rng:(Rng.create 1) ()
  in
  let q = EQ.create () in
  let schedule =
    List.iter (function Transport.Wire { at; wire } -> EQ.schedule q ~time:at wire | _ -> ())
  in
  schedule (Transport.send tp ~now:0 ~src:0 ~dst:1 ());
  Alcotest.(check int) "accepted" 1 (Transport.in_flight tp);
  let rec until_delivered () =
    match EQ.pop q with
    | None -> Alcotest.fail "never delivered"
    | Some (t, w) ->
        let emits = Transport.handle tp ~now:t w in
        schedule emits;
        if not (List.exists (function Transport.Deliver _ -> true | _ -> false) emits) then
          until_delivered ()
  in
  until_delivered ();
  Alcotest.(check int) "delivered, ack not yet handled" 1 (Transport.in_flight tp);
  let rec drain () =
    match EQ.pop q with
    | None -> ()
    | Some (t, w) ->
        schedule (Transport.handle tp ~now:t w);
        drain ()
  in
  drain ();
  Alcotest.(check int) "acknowledged" 0 (Transport.in_flight tp)

(* ------------------------------------------------------------------ *)
(* The property grid                                                   *)
(* ------------------------------------------------------------------ *)

let environments = [ "random"; "group"; "client-server" ]

let grid =
  List.concat_map
    (fun drop -> List.map (fun dup -> { Faults.none with drop; dup }) [ 0.0; 0.05 ])
    [ 0.0; 0.02; 0.1 ]
  @ [
      {
        Faults.none with
        drop = 0.05;
        partitions = [ { Faults.between = [ 1 ]; from_t = 800; to_t = 2200 } ];
      };
    ]

let run_faulty ?(transport = Transport.default_params) ~protocol ~ename ~faults ~seed () =
  let env = Rdt_workloads.Registry.find_exn ename in
  Runtime.run
    {
      (Runtime.default_config env protocol) with
      Runtime.n = 5;
      seed;
      max_messages = 250;
      faults;
      transport = Some transport;
    }

let test_property_grid () =
  List.iter
    (fun protocol ->
      let pname = Protocol.name protocol in
      List.iter
        (fun ename ->
          List.iteri
            (fun i faults ->
              let label = Printf.sprintf "%s/%s/grid-%d" pname ename i in
              let r = run_faulty ~protocol ~ename ~faults ~seed:(i + 1) () in
              let s = Option.get r.Runtime.transport in
              Alcotest.(check int)
                (label ^ ": every message delivered or undeliverable")
                s.Transport.accepted
                (s.Transport.delivered + s.Transport.undeliverable);
              let c1 = Checker.run r.Runtime.pattern in
              let c2 = Checker.run ~algo:`Chains r.Runtime.pattern in
              let c3 = Checker.run ~algo:`Doubling r.Runtime.pattern in
              check
                (label ^ ": checkers agree")
                true
                (c1.Checker.rdt = c2.Checker.rdt && c2.Checker.rdt = c3.Checker.rdt);
              if Protocol.ensures_rdt protocol then
                check (label ^ ": RDT holds under faults") true c1.Checker.rdt)
            grid)
        environments)
    Registry.all

let test_undeliverable_degradation () =
  (* every packet lost: the run must still terminate, with every message
     reported undeliverable and none in the pattern *)
  let r =
    run_faulty
      ~transport:{ Transport.default_params with max_retx = 3 }
      ~protocol:(Registry.find_exn "bhmr") ~ename:"random"
      ~faults:{ Faults.none with drop = 1.0 }
      ~seed:1 ()
  in
  let s = Option.get r.Runtime.transport in
  check "messages were sent" true (s.Transport.accepted > 0);
  Alcotest.(check int) "none delivered" 0 s.Transport.delivered;
  Alcotest.(check int) "all undeliverable" s.Transport.accepted s.Transport.undeliverable;
  Alcotest.(check int) "pattern has no messages" 0
    r.Runtime.metrics.Rdt_core.Metrics.messages;
  check "trivially RDT" true (Checker.run r.Runtime.pattern).Checker.rdt

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)
(* ------------------------------------------------------------------ *)

let fault_kinds =
  [
    ("drop", { Faults.none with drop = 0.15 }, fun s -> s.Transport.packets_dropped > 0);
    ("dup", { Faults.none with dup = 0.2 }, fun s -> s.Transport.duplicated > 0);
    ( "reorder",
      { Faults.none with reorder = 0.3; reorder_window = 60 },
      fun s -> s.Transport.reordered > 0 );
    ( "partition",
      {
        Faults.none with
        partitions = [ { Faults.between = [ 0; 2 ]; from_t = 500; to_t = 1500 } ];
      },
      fun s -> s.Transport.packets_dropped > 0 );
  ]

let test_determinism_per_fault_kind () =
  let protocol = Registry.find_exn "bhmr" in
  List.iter
    (fun (label, faults, exercised) ->
      let run seed = run_faulty ~protocol ~ename:"random" ~faults ~seed () in
      let a = run 7 and b = run 7 in
      (* compare before any checker call: the checkers memoize inside the
         pattern, so equality must be judged on fresh results *)
      check (label ^ ": byte-identical pattern") true
        (Rdt_pattern.Pattern.equal a.Runtime.pattern b.Runtime.pattern);
      check (label ^ ": identical metrics") true (a.Runtime.metrics = b.Runtime.metrics);
      check
        (label ^ ": identical retransmission counts")
        true
        (a.Runtime.transport = b.Runtime.transport);
      check (label ^ ": fault exercised") true (exercised (Option.get a.Runtime.transport));
      let c = run 8 in
      check (label ^ ": seed changes the run") true
        (not (Rdt_pattern.Pattern.equal a.Runtime.pattern c.Runtime.pattern)))
    fault_kinds

(* ------------------------------------------------------------------ *)
(* Validation at the config entry points                               *)
(* ------------------------------------------------------------------ *)

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

let test_runtime_validation () =
  let env = Rdt_workloads.Registry.find_exn "random" in
  let base = Runtime.default_config env (Registry.find_exn "bhmr") in
  let tp = Some Transport.default_params in
  check "faults require a transport" true
    (raises_invalid (fun () ->
         Runtime.run { base with Runtime.faults = { Faults.none with drop = 0.1 } }));
  check "drop out of range" true
    (raises_invalid (fun () ->
         Runtime.run
           { base with Runtime.faults = { Faults.none with drop = 1.5 }; transport = tp }));
  check "reorder without window" true
    (raises_invalid (fun () ->
         Runtime.run
           { base with Runtime.faults = { Faults.none with reorder = 0.1 }; transport = tp }));
  check "partition pid out of range" true
    (raises_invalid (fun () ->
         Runtime.run
           {
             base with
             Runtime.faults =
               {
                 Faults.none with
                 partitions = [ { Faults.between = [ 99 ]; from_t = 0; to_t = 10 } ];
               };
             transport = tp;
           }));
  check "bad retx_timeout" true
    (raises_invalid (fun () ->
         Runtime.run
           { base with Runtime.transport = Some { Transport.default_params with retx_timeout = 0 } }));
  check "bad channel rejected, not clamped" true
    (raises_invalid (fun () -> Runtime.run { base with Runtime.channel = Channel.Uniform (5, 1) }));
  check "fixed 0 channel rejected" true
    (raises_invalid (fun () -> Runtime.run { base with Runtime.channel = Channel.Fixed 0 }))

let test_crash_sim_validation () =
  let env = Rdt_workloads.Registry.find_exn "random" in
  let base =
    {
      (Runtime.default_config env (Registry.find_exn "bhmr")) with
      Runtime.crashes = [ { Runtime.victim = 1; at = 1500; repair_delay = 200 } ];
    }
  in
  check "crash_sim: faults require a transport" true
    (raises_invalid (fun () ->
         Runtime.run { base with Runtime.faults = { Faults.none with drop = 0.1 } }));
  check "crash_sim: bad fault spec" true
    (raises_invalid (fun () ->
         Runtime.run
           {
             base with
             Runtime.faults = { Faults.none with dup = 2.0 };
             transport = Some Transport.default_params;
           }));
  check "crash_sim: bad channel rejected" true
    (raises_invalid (fun () -> Runtime.run { base with Runtime.channel = Channel.Uniform (0, 5) }))

let () =
  Alcotest.run "rdt_faults"
    [
      ( "faults",
        [
          Alcotest.test_case "validate" `Quick test_faults_validate;
          Alcotest.test_case "partition cuts" `Quick test_faults_cuts;
        ] );
      ( "transport",
        [
          Alcotest.test_case "FIFO exactly-once under heavy faults" `Quick
            test_transport_fifo_exactly_once;
          Alcotest.test_case "partition heals" `Quick test_transport_partition_heals;
          Alcotest.test_case "gives up on a dead link" `Quick test_transport_gives_up;
          Alcotest.test_case "in flight until acknowledged" `Quick
            test_transport_in_flight_until_acked;
        ] );
      ( "property",
        [
          Alcotest.test_case "registry x environments x fault grid" `Quick test_property_grid;
          Alcotest.test_case "graceful degradation" `Quick test_undeliverable_degradation;
        ] );
      ( "determinism",
        [ Alcotest.test_case "per fault kind" `Quick test_determinism_per_fault_kind ] );
      ( "validation",
        [
          Alcotest.test_case "runtime entry point" `Quick test_runtime_validation;
          Alcotest.test_case "crash_sim entry point" `Quick test_crash_sim_validation;
        ] );
    ]
