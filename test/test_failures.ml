(* Tests for crash runs of Runtime: online crashes, rollback,
   protocol-state restoration, and message replay. *)

module R = Rdt_core.Runtime
module P = Rdt_pattern.Pattern
module Checker = Rdt_core.Checker
module Consistency = Rdt_pattern.Consistency

let check = Alcotest.(check bool)
let qt = QCheck_alcotest.to_alcotest

let config ?(n = 5) ?(seed = 7) ?(messages = 800) ?(envname = "random") ?(crashes = [])
    ?(faults = Rdt_dist.Faults.none) ?transport pname =
  let p = Rdt_core.Registry.find_exn pname in
  let env = Rdt_workloads.Registry.find_exn envname in
  {
    (R.default_config env p) with
    R.n;
    seed;
    max_messages = messages;
    crashes;
    faults;
    transport;
  }

let one_crash = [ { R.victim = 2; at = 2500; repair_delay = 200 } ]

let three_crashes =
  [
    { R.victim = 2; at = 2000; repair_delay = 200 };
    { R.victim = 0; at = 4500; repair_delay = 300 };
    { R.victim = 2; at = 7000; repair_delay = 150 };
  ]

let undone (r : R.result) =
  List.fold_left (fun a (rc : R.recovery) -> a + rc.events_undone) 0 r.recoveries

let net (r : R.result) =
  match r.transport with Some s -> s | None -> Alcotest.fail "no transport stats"

let test_no_crash_baseline () =
  (* without crashes the simulation must behave like a normal run *)
  let r = R.run (config "bhmr") in
  Alcotest.(check int) "no recoveries" 0 (List.length r.recoveries);
  Alcotest.(check int) "budget delivered" 800 r.metrics.messages;
  Alcotest.(check int) "nothing undone" 0 (undone r);
  check "valid" true (Result.is_ok (P.validate r.pattern));
  check "rdt" true (Checker.run r.pattern).Checker.rdt

let test_rdt_survives_crashes () =
  (* the surviving execution of an RDT protocol must satisfy RDT, with
     the on-line vectors still faithful after state restorations *)
  List.iter
    (fun pname ->
      List.iter
        (fun envname ->
          let r = R.run (config ~envname ~crashes:three_crashes pname) in
          Alcotest.(check int) (pname ^ " three recoveries") 3 (List.length r.recoveries);
          if not (Checker.run r.pattern).Checker.rdt then
            Alcotest.failf "%s on %s: RDT violated after recovery" pname envname;
          check (pname ^ " online tdv") true (Checker.online_tdv_consistent r.pattern);
          check (pname ^ " valid") true (Result.is_ok (P.validate r.pattern)))
        [ "random"; "client-server" ])
    [ "bhmr"; "bhmr-v1"; "fdas"; "cbr"; "cas" ]

let test_recovery_lines_consistent () =
  let r = R.run (config ~crashes:three_crashes "bhmr") in
  (* each recorded recovery line must be a consistent global checkpoint of
     the *surviving* pattern whenever its checkpoints survived; at minimum
     the victim's entry never exceeds its last durable checkpoint *)
  List.iter
    (fun (rc : R.recovery) ->
      check "line entries nonnegative" true (Array.for_all (fun x -> x >= 0) rc.line))
    r.recoveries;
  check "lines are monotone across recoveries" true
    (let rec mono = function
       | (a : R.recovery) :: (b : R.recovery) :: rest ->
           Array.for_all2 ( <= ) a.line b.line && mono (b :: rest)
       | [ _ ] | [] -> true
     in
     mono r.recoveries)

let test_domino_under_none () =
  let surgical = R.run (config ~messages:1200 ~crashes:three_crashes "bhmr") in
  let domino = R.run (config ~messages:1200 ~crashes:three_crashes "none") in
  check "none undoes far more work" true
    (undone domino > 10 * undone surgical);
  (* both executions remain structurally valid *)
  check "none still valid" true (Result.is_ok (P.validate domino.pattern))

let test_replay_accounting () =
  let r = R.run (config ~crashes:one_crash "bhmr") in
  let rc = List.hd r.recoveries in
  check "replays bounded by undone deliveries" true
    (rc.messages_replayed <= rc.events_undone);
  (* every message in the final pattern is delivered exactly once *)
  Alcotest.(check int) "pattern messages = delivered" r.metrics.messages
    (P.num_messages r.pattern)

let test_deterministic () =
  let a = R.run (config ~crashes:three_crashes "bhmr") in
  let b = R.run (config ~crashes:three_crashes "bhmr") in
  check "same recoveries" true
    (List.map (fun (rc : R.recovery) -> rc.line) a.recoveries
    = List.map (fun (rc : R.recovery) -> rc.line) b.recoveries);
  Alcotest.(check int) "same undone" (undone a) (undone b)

let test_crash_while_idle_process () =
  (* crashing a process that has no volatile state loses nothing of its own *)
  let crashes = [ { R.victim = 1; at = 1; repair_delay = 50 } ] in
  let r = R.run (config ~crashes "bhmr") in
  check "recovered" true (List.length r.recoveries = 1);
  check "rdt" true (Checker.run r.pattern).Checker.rdt

let test_basic_checkpoints_drain () =
  (* basic checkpoints keep running after the send budget while messages
     are still owed a delivery, so some seed takes one after its last send *)
  let basic_after_last_send seed =
    let after = ref false in
    let tr =
      Rdt_obs.Trace.observer (function
        | Rdt_obs.Trace.Send _ -> after := false
        | Rdt_obs.Trace.Ckpt { kind = Rdt_pattern.Types.Basic; _ } -> after := true
        | _ -> ())
    in
    ignore (R.run { (config ~seed ~messages:400 ~crashes:one_crash "bhmr") with R.trace = tr });
    !after
  in
  check "some seed checkpoints after its last send" true
    (List.exists basic_after_last_send [ 1; 2; 3; 4; 5; 6 ])

let test_validation () =
  Alcotest.check_raises "bad victim" (Invalid_argument "Runtime: victim out of range")
    (fun () ->
      ignore (R.run (config ~crashes:[ { R.victim = 9; at = 10; repair_delay = 10 } ] "bhmr")));
  Alcotest.check_raises "overlapping crashes"
    (Invalid_argument "Runtime: overlapping crashes of the same process") (fun () ->
      ignore
        (R.run
           (config
              ~crashes:
                [
                  { R.victim = 1; at = 100; repair_delay = 500 };
                  { R.victim = 1; at = 200; repair_delay = 100 };
                ]
              "bhmr")));
  Alcotest.check_raises "zero repair" (Invalid_argument "Runtime: repair_delay must be >= 1")
    (fun () ->
      ignore (R.run (config ~crashes:[ { R.victim = 1; at = 100; repair_delay = 0 } ] "bhmr")))

(* -------------------- crashes composed with network faults ------------- *)

let lossy =
  {
    Rdt_dist.Faults.drop = 0.1;
    dup = 0.05;
    reorder = 0.05;
    reorder_window = 40;
    partitions = [ { Rdt_dist.Faults.between = [ 2 ]; from_t = 2000; to_t = 4500 } ];
    intermittent = [];
  }

let faulty_config ?transport ?(crashes = three_crashes) ?(envname = "random") pname =
  let transport = Option.value transport ~default:Rdt_dist.Transport.default_params in
  config ~envname ~crashes ~faults:lossy ~transport pname

let test_rdt_survives_crashes_under_faults () =
  (* the strongest end-to-end property: crashes, rollbacks and replays on
     top of a network that loses, duplicates, reorders and partitions —
     and the surviving pattern still satisfies RDT *)
  List.iter
    (fun pname ->
      List.iter
        (fun envname ->
          let r = R.run (faulty_config ~envname pname) in
          Alcotest.(check int) (pname ^ " three recoveries") 3 (List.length r.recoveries);
          if not (Checker.run r.pattern).Checker.rdt then
            Alcotest.failf "%s on %s: RDT violated under crashes + faults" pname envname;
          check (pname ^ " valid") true (Result.is_ok (P.validate r.pattern));
          check (pname ^ " retransmitted") true ((net r).retransmissions > 0);
          Alcotest.(check int)
            (pname ^ " pattern messages = delivered")
            r.metrics.messages (P.num_messages r.pattern))
        [ "random"; "client-server" ])
    [ "bhmr"; "fdas" ]

let test_deterministic_under_faults () =
  let a = R.run (faulty_config "bhmr") in
  let b = R.run (faulty_config "bhmr") in
  check "same pattern" true (Rdt_pattern.Pattern.equal a.pattern b.pattern);
  check "same metrics" true (a.metrics = b.metrics);
  check "same transport stats (incl. retransmission counts)" true (a.transport = b.transport);
  check "same recoveries" true (a.recoveries = b.recoveries)

let test_undeliverable_under_faults () =
  (* a dead network with a tiny retry budget: every message is abandoned,
     the run still terminates and the pattern is empty of messages *)
  let r =
    R.run
      (config ~messages:100
         ~faults:{ Rdt_dist.Faults.none with drop = 1.0 }
         ~transport:{ Rdt_dist.Transport.default_params with max_retx = 2 }
         "bhmr")
  in
  check "messages were sent" true ((net r).undeliverable > 0);
  Alcotest.(check int) "nothing delivered" 0 r.metrics.messages;
  Alcotest.(check int) "pattern empty of messages" 0 (P.num_messages r.pattern);
  check "still a valid pattern" true (Result.is_ok (P.validate r.pattern))

let test_transport_without_faults_matches_reliability () =
  (* a perfect network under the transport: nothing dropped, nothing
     abandoned, every message delivered despite the crash plan *)
  let r =
    R.run (config ~crashes:three_crashes ~transport:Rdt_dist.Transport.default_params "bhmr")
  in
  (* packets_dropped still counts copies lost at crashed hosts, but with a
     perfect network nothing may be abandoned *)
  Alcotest.(check int) "no undeliverable" 0 (net r).undeliverable;
  check "rdt" true (Checker.run r.pattern).Checker.rdt;
  Alcotest.(check int) "pattern messages = delivered" r.metrics.messages
    (P.num_messages r.pattern)

let test_network_accounting_under_faults () =
  (* stop-and-wait accounts by the messages' fates: every surviving send
     ended delivered or abandoned, and the delivered ones are the
     pattern's messages *)
  let r = R.run (faulty_config "bhmr") in
  let s = net r in
  Alcotest.(check int) "accepted = delivered + undeliverable" s.accepted
    (s.delivered + s.undeliverable);
  Alcotest.(check int) "delivered = pattern messages" s.delivered (P.num_messages r.pattern)

(* Every counter of the stop-and-wait network and every recovery of three
   crash runs, as literal values: drop, duplication and reordering around
   two crashes; a partition that outlasts a small retry budget, so
   messages are abandoned; and a perfect network with crashes.  Any change
   to the order of the network's random draws, to its accounting or to the
   recovery line shows here. *)
let pin_of (r : R.result) =
  Format.asprintf "%a@\n%s" Rdt_dist.Transport.pp_stats (net r)
    (String.concat "\n"
       (List.map
          (fun (rc : R.recovery) ->
            Printf.sprintf "%d@%d+%d line=[%s] undone=%d/%d/%d replayed=%d" rc.crash.victim
              rc.crash.at rc.crash.repair_delay
              (String.concat ";" (List.map string_of_int (Array.to_list rc.line)))
              rc.events_undone rc.checkpoints_undone rc.messages_undone rc.messages_replayed)
          r.recoveries))

let test_stop_and_wait_pins () =
  let pin name cfg expected = Alcotest.(check string) name expected (pin_of (R.run cfg)) in
  let default = Rdt_dist.Transport.default_params in
  pin "drop + dup + reorder, two crashes"
    (config
       ~crashes:
         [
           { R.victim = 1; at = 2000; repair_delay = 200 };
           { R.victim = 3; at = 5000; repair_delay = 250 };
         ]
       ~faults:
         { Rdt_dist.Faults.none with drop = 0.1; dup = 0.05; reorder = 0.1; reorder_window = 40 }
       ~transport:default "none")
    "transport: 216 msgs (216 delivered, 0 undeliverable), 951 data pkts (151 retx), 872 acks, \
     190 dropped, 77 duplicated, 89 dup-suppressed, 169 reordered\n\
     1@2000+200 line=[0;0;0;0;0] undone=540/21/253 replayed=0\n\
     3@5000+250 line=[0;0;0;0;0] undone=721/32/331 replayed=0";
  pin "partition past max_retx"
    (config ~crashes:one_crash
       ~faults:
         {
           Rdt_dist.Faults.none with
           partitions = [ { Rdt_dist.Faults.between = [ 2 ]; from_t = 1000; to_t = 6000 } ];
         }
       ~transport:{ default with max_retx = 2 }
       "bhmr")
    "transport: 797 msgs (611 delivered, 186 undeliverable), 1341 data pkts (507 retx), 611 acks, \
     732 dropped, 0 duplicated, 0 dup-suppressed, 0 reordered\n\
     2@2500+200 line=[26;27;15;31;27] undone=3/0/3 replayed=0";
  pin "perfect network, crashes"
    (config ~crashes:three_crashes ~transport:default "fdas")
    "transport: 798 msgs (798 delivered, 0 undeliverable), 825 data pkts (21 retx), 807 acks, \
     30 dropped, 0 duplicated, 3 dup-suppressed, 0 reordered\n\
     2@2000+200 line=[23;26;26;28;26] undone=1/0/0 replayed=1\n\
     0@4500+300 line=[50;54;58;61;58] undone=2/0/0 replayed=2\n\
     2@7000+150 line=[85;86;80;83;81] undone=7/2/2 replayed=1"

let crash_rdt_property =
  QCheck.Test.make ~name:"RDT survives random crash plans" ~count:25
    QCheck.(triple (int_bound 4) (int_bound 3) small_nat)
    (fun (victim, n_crashes, seed) ->
      let crashes =
        List.init (1 + n_crashes) (fun k ->
            { R.victim = victim mod 4; at = 1500 * (k + 1); repair_delay = 100 + (37 * k) })
      in
      let r = R.run (config ~n:4 ~seed:(seed + 1) ~messages:400 ~crashes "bhmr") in
      (Checker.run r.pattern).Checker.rdt
      && Checker.online_tdv_consistent r.pattern
      && Result.is_ok (P.validate r.pattern))

let crash_consistency_property =
  QCheck.Test.make ~name:"surviving pattern has no useless checkpoints (bhmr)" ~count:15
    QCheck.(pair (int_bound 4) small_nat)
    (fun (victim, seed) ->
      let crashes = [ { R.victim = victim mod 4; at = 2000; repair_delay = 150 } ] in
      let r = R.run (config ~n:4 ~seed:(seed + 1) ~messages:300 ~crashes "bhmr") in
      let ok = ref true in
      P.iter_ckpts r.pattern (fun c ->
          if
            Consistency.useless r.pattern
              (c.Rdt_pattern.Types.owner, c.Rdt_pattern.Types.index)
          then ok := false);
      !ok)

let () =
  Alcotest.run "rdt_failures"
    [
      ( "crash-sim",
        [
          Alcotest.test_case "no crashes = plain run" `Quick test_no_crash_baseline;
          Alcotest.test_case "RDT survives crashes" `Quick test_rdt_survives_crashes;
          Alcotest.test_case "recovery lines monotone" `Quick test_recovery_lines_consistent;
          Alcotest.test_case "domino under none" `Quick test_domino_under_none;
          Alcotest.test_case "replay accounting" `Quick test_replay_accounting;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "early crash" `Quick test_crash_while_idle_process;
          Alcotest.test_case "basic checkpoints while draining" `Quick
            test_basic_checkpoints_drain;
          Alcotest.test_case "validation" `Quick test_validation;
          qt crash_rdt_property;
          qt crash_consistency_property;
        ] );
      ( "crash+faults",
        [
          Alcotest.test_case "RDT survives crashes under faults" `Quick
            test_rdt_survives_crashes_under_faults;
          Alcotest.test_case "deterministic" `Quick test_deterministic_under_faults;
          Alcotest.test_case "graceful degradation" `Quick test_undeliverable_under_faults;
          Alcotest.test_case "network accounting" `Quick test_network_accounting_under_faults;
          Alcotest.test_case "perfect network, crashes only" `Quick
            test_transport_without_faults_matches_reliability;
          Alcotest.test_case "stop-and-wait pins" `Quick test_stop_and_wait_pins;
        ] );
    ]
