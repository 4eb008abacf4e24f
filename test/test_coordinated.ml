(* Tests for rdt_coordinated: Chandy-Lamport snapshots and Koo-Toueg
   two-phase checkpointing on the one coordinated runtime. *)

module C = Rdt_coordinated.Coordinated
module P = Rdt_pattern.Pattern
module Consistency = Rdt_pattern.Consistency

let check = Alcotest.(check bool)

let run_algo algo ?(n = 5) ?(seed = 3) ?(messages = 600) ~period ?(max_time = max_int / 2) envname
    =
  let env = Rdt_workloads.Registry.find_exn envname in
  C.run
    {
      (C.default_config algo env) with
      C.n;
      seed;
      max_messages = messages;
      initiation_period = period;
      max_time;
    }

let run ?n ?seed ?messages ?(period = 400) envname =
  run_algo C.Chandy_lamport ?n ?seed ?messages ~period envname

let run_kt ?n ?seed ?messages ?(period = 500) ?max_time envname =
  run_algo C.Koo_toueg ?n ?seed ?messages ~period ?max_time envname

let environments = List.map (fun (n, _, _) -> n) Rdt_workloads.Registry.all

let test_snapshots_complete () =
  List.iter
    (fun envname ->
      let r = run envname in
      if r.C.metrics.C.rounds_completed = 0 then
        Alcotest.failf "%s: no snapshot completed" envname;
      Alcotest.(check int)
        (envname ^ ": snapshot list matches metric")
        r.C.metrics.C.rounds_completed (List.length r.C.rounds))
    environments

let test_cuts_consistent () =
  List.iter
    (fun envname ->
      let r = run envname in
      List.iter
        (fun (s : C.round) ->
          if not (Consistency.consistent_global r.C.pattern s.C.cut) then
            Alcotest.failf "%s: snapshot %d inconsistent" envname s.C.id)
        r.C.rounds)
    environments

let test_channel_state_is_in_transit () =
  (* the channel states recorded by Chandy-Lamport are exactly the
     in-transit messages of the cut, as computed by the (independent)
     message-logging analysis *)
  List.iter
    (fun envname ->
      let r = run envname in
      List.iter
        (fun (s : C.round) ->
          let recorded = List.sort compare s.C.channel_state in
          let analysed =
            List.sort compare (Rdt_recovery.Message_log.in_transit r.C.pattern ~line:s.C.cut)
          in
          if recorded <> analysed then
            Alcotest.failf "%s: snapshot %d channel state mismatch" envname s.C.id)
        r.C.rounds)
    environments

let test_marker_cost () =
  let r = run "random" in
  Alcotest.(check int) "n(n-1) markers per snapshot"
    (r.C.metrics.C.rounds_completed * C.markers_per_snapshot ~n:5)
    r.C.metrics.C.control_messages

let test_one_checkpoint_per_snapshot () =
  let r = run "random" in
  let pat = r.C.pattern in
  (* each process has: initial + one per snapshot + final *)
  for i = 0 to P.n pat - 1 do
    let non_final =
      Array.fold_left
        (fun acc (c : Rdt_pattern.Types.ckpt) ->
          match c.kind with
          | Rdt_pattern.Types.Basic -> acc + 1
          | Rdt_pattern.Types.Initial | Rdt_pattern.Types.Forced | Rdt_pattern.Types.Final -> acc)
        0 (P.checkpoints pat i)
    in
    Alcotest.(check int)
      (Printf.sprintf "process %d checkpoints" i)
      r.C.metrics.C.rounds_completed non_final
  done

let test_latency_ordering () =
  let r = run "random" in
  List.iter
    (fun (s : C.round) ->
      check "completion after initiation" true (s.C.completed_at > s.C.initiated_at))
    r.C.rounds;
  (* snapshots are sequential: each starts after the previous completed *)
  let rec pairs = function
    | a :: (b :: _ as rest) ->
        check "no overlap" true (b.C.initiated_at >= a.C.completed_at);
        pairs rest
    | [ _ ] | [] -> ()
  in
  pairs r.C.rounds

let test_deterministic () =
  let a = run "group" and b = run "group" in
  Alcotest.(check int) "same snapshot count" a.C.metrics.C.rounds_completed
    b.C.metrics.C.rounds_completed;
  check "same cuts" true
    (List.map (fun s -> s.C.cut) a.C.rounds = List.map (fun s -> s.C.cut) b.C.rounds)

let test_budget_respected () =
  let r = run ~messages:123 "random" in
  Alcotest.(check int) "app messages" 123 r.C.metrics.C.app_messages;
  check "pattern valid" true (Result.is_ok (P.validate r.C.pattern))

let test_validation () =
  let env = Rdt_workloads.Registry.find_exn "random" in
  let cfg = C.default_config C.Chandy_lamport env in
  Alcotest.check_raises "n too small" (Invalid_argument "Coordinated: n must be >= 2") (fun () ->
      ignore (C.run { cfg with C.n = 1 }));
  Alcotest.check_raises "bad period"
    (Invalid_argument "Coordinated: initiation_period must be >= 1") (fun () ->
      ignore (C.run { cfg with C.initiation_period = 0 }));
  Alcotest.check_raises "negative budget" (Invalid_argument "Coordinated: negative message budget")
    (fun () -> ignore (C.run { cfg with C.max_messages = -1 }))

(* The contrast with CIC: coordinated snapshots also make every recorded
   checkpoint a member of a consistent global checkpoint, but they pay in
   control messages, which CIC never sends. *)
let test_no_useless_checkpoints () =
  let r = run "client-server" in
  let pat = r.C.pattern in
  List.iter
    (fun (s : C.round) ->
      Array.iteri
        (fun i x ->
          if Consistency.useless pat (i, x) then
            Alcotest.failf "snapshot checkpoint C(%d,%d) useless" i x)
        s.C.cut)
    r.C.rounds

(* ------------------------------------------------------------------ *)
(* Koo-Toueg                                                           *)
(* ------------------------------------------------------------------ *)

let test_kt_rounds_commit () =
  List.iter
    (fun envname ->
      let r = run_kt envname in
      if r.C.metrics.C.rounds_completed = 0 then Alcotest.failf "%s: no round" envname;
      Alcotest.(check int)
        (envname ^ ": rounds recorded")
        r.C.metrics.C.rounds_completed (List.length r.C.rounds))
    environments

let test_kt_cuts_consistent () =
  List.iter
    (fun envname ->
      let r = run_kt envname in
      List.iter
        (fun (rd : C.round) ->
          if not (Consistency.consistent_global r.C.pattern rd.C.cut) then
            Alcotest.failf "%s: round %d cut inconsistent" envname rd.C.id)
        r.C.rounds)
    environments

let test_kt_partial_participation () =
  (* on the client-server chain, dependency does not always span all
     servers: some round should involve fewer than n participants *)
  let r = run_kt ~n:8 ~messages:900 "client-server" in
  check "some partial round" true
    (List.exists (fun (rd : C.round) -> List.length rd.C.participants < 8) r.C.rounds);
  (* participants are exactly the processes whose checkpoint count grew *)
  List.iter
    (fun (rd : C.round) ->
      check "initiator participates" true (List.mem 0 rd.C.participants))
    r.C.rounds

let test_kt_deterministic () =
  let a = run_kt "random" and b = run_kt "random" in
  check "same rounds" true
    (List.map (fun r -> r.C.cut) a.C.rounds = List.map (fun r -> r.C.cut) b.C.rounds)

let test_kt_control_and_checkpoints () =
  let r = run_kt "random" in
  check "control messages counted" true (r.C.metrics.C.control_messages > 0);
  (* total checkpoints = sum over rounds of participants *)
  let by_rounds =
    List.fold_left (fun a (rd : C.round) -> a + List.length rd.C.participants) 0 r.C.rounds
  in
  Alcotest.(check int) "checkpoints = participants" by_rounds r.C.metrics.C.checkpoints_taken;
  check "pattern valid" true (Result.is_ok (P.validate r.C.pattern))

(* A process in two cohorts receives a Commit from each parent.  Channels
   are not FIFO, so the second Commit can land after the next round's
   Request: it must not commit that round's tentative checkpoint, or the
   round never completes.  Short periods make rounds follow each other
   closely enough to hit this.
   [max_time] only bounds a livelocked run (every send deferred, ticks
   forever); a healthy run ends far earlier. *)
let test_kt_no_livelock () =
  List.iter
    (fun envname ->
      List.iter
        (fun (seed, n, period) ->
          let name = Printf.sprintf "%s seed=%d n=%d period=%d" envname seed n period in
          let r =
            try run_kt ~n ~seed ~period ~max_time:1_000_000 envname
            with Invalid_argument e -> Alcotest.failf "%s: %s" name e
          in
          List.iter
            (fun (rd : C.round) ->
              if not (Consistency.consistent_global r.C.pattern rd.C.cut) then
                Alcotest.failf "%s: round %d cut inconsistent" name rd.C.id;
              if List.length (List.sort_uniq compare rd.C.participants)
                 <> List.length rd.C.participants
              then Alcotest.failf "%s: round %d repeats a participant" name rd.C.id)
            r.C.rounds)
        (List.concat_map
           (fun seed ->
             List.concat_map (fun n -> List.map (fun p -> (seed, n, p)) [ 50; 100 ]) [ 3; 5; 8 ])
           [ 1; 2; 3; 4; 5; 6 ]))
    environments

let test_kt_validation () =
  let env = Rdt_workloads.Registry.find_exn "random" in
  let cfg = C.default_config C.Koo_toueg env in
  Alcotest.check_raises "n" (Invalid_argument "Coordinated: n must be >= 2") (fun () ->
      ignore (C.run { cfg with C.n = 1 }));
  Alcotest.check_raises "negative budget" (Invalid_argument "Coordinated: negative message budget")
    (fun () -> ignore (C.run { cfg with C.max_messages = -1 }))

let () =
  Alcotest.run "rdt_coordinated"
    [
      ( "chandy-lamport",
        [
          Alcotest.test_case "snapshots complete" `Quick test_snapshots_complete;
          Alcotest.test_case "cuts consistent" `Quick test_cuts_consistent;
          Alcotest.test_case "channel state = in-transit" `Quick test_channel_state_is_in_transit;
          Alcotest.test_case "marker cost" `Quick test_marker_cost;
          Alcotest.test_case "one checkpoint per snapshot" `Quick test_one_checkpoint_per_snapshot;
          Alcotest.test_case "latency ordering" `Quick test_latency_ordering;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "budget respected" `Quick test_budget_respected;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "no useless checkpoints" `Quick test_no_useless_checkpoints;
        ] );
      ( "koo-toueg",
        [
          Alcotest.test_case "rounds commit" `Quick test_kt_rounds_commit;
          Alcotest.test_case "cuts consistent" `Quick test_kt_cuts_consistent;
          Alcotest.test_case "partial participation" `Quick test_kt_partial_participation;
          Alcotest.test_case "deterministic" `Quick test_kt_deterministic;
          Alcotest.test_case "control and checkpoints" `Quick test_kt_control_and_checkpoints;
          Alcotest.test_case "validation" `Quick test_kt_validation;
          Alcotest.test_case "no livelock on a late commit" `Quick test_kt_no_livelock;
        ] );
    ]
