(* Randomized property suite for the reliable-delivery transport.

   QCheck generates fault schedules (drop/dup/reorder rates, partition
   windows, retransmission parameters, traffic shapes) via the shared
   {!Rdt_test_helpers.Gen.link_scenario} generator and drives the
   per-link state machine in isolation.  Invariants checked on every
   schedule: the link drains, accepted = delivered + undeliverable,
   delivery is exactly-once FIFO, and the stats counters are coherent.
   Plus a directed test that re-handles wire packets verbatim to pin down
   idempotent duplicate suppression. *)

module Transport = Rdt_dist.Transport
module Faults = Rdt_dist.Faults
module Channel = Rdt_dist.Channel
module Rng = Rdt_dist.Rng
module EQ = Rdt_dist.Event_queue
module Gen = Rdt_test_helpers.Gen

let qt = QCheck_alcotest.to_alcotest
let scenario_arbitrary = Gen.link_scenario_arbitrary

(* Run the scenario to completion; returns deliveries in order, the
   undeliverable set and the final stats. *)
let run_scenario (s : Gen.link_scenario) =
  let params = { Transport.retx_timeout = s.retx_timeout; max_retx = s.max_retx } in
  let tp =
    Transport.create ~n:2 ~params ~faults:(Gen.faults_of_link s)
      ~channel:(Channel.Uniform (5, 60)) ~rng:(Rng.create s.link_seed) ()
  in
  let q = EQ.create () in
  let delivered = ref [] and undeliv = ref [] in
  let apply now emits =
    ignore now;
    List.iter
      (function
        | Transport.Deliver { msg; _ } -> delivered := msg :: !delivered
        | Transport.Wire { at; wire } -> EQ.schedule q ~time:at wire
        | Transport.Undeliverable { msg; _ } -> undeliv := msg :: !undeliv)
      emits
  in
  for i = 0 to s.messages - 1 do
    apply 0 (Transport.send tp ~now:(i * s.send_gap) ~src:0 ~dst:1 i)
  done;
  let rec loop () =
    match EQ.pop q with
    | None -> ()
    | Some (t, w) ->
        apply t (Transport.handle tp ~now:t w);
        loop ()
  in
  loop ();
  (tp, List.rev !delivered, !undeliv)

let prop_conservation =
  QCheck.Test.make ~name:"accepted = delivered + undeliverable, and the link drains" ~count:150
    scenario_arbitrary (fun s ->
      let tp, delivered, undeliv = run_scenario s in
      let stats = Transport.stats tp in
      Transport.in_flight tp = 0
      && stats.Transport.accepted = s.messages
      && stats.Transport.accepted = stats.Transport.delivered + stats.Transport.undeliverable
      && List.length delivered = stats.Transport.delivered
      && List.length undeliv = stats.Transport.undeliverable)

let prop_exactly_once_fifo =
  QCheck.Test.make ~name:"exactly-once FIFO delivery" ~count:150 scenario_arbitrary (fun s ->
      let _, delivered, undeliv = run_scenario s in
      (* strictly increasing payloads: in order, no duplicate *)
      let rec increasing = function
        | a :: (b :: _ as rest) -> a < b && increasing rest
        | [ _ ] | [] -> true
      in
      (* delivered and undeliverable partition the sent payloads *)
      let all = List.sort compare (delivered @ undeliv) in
      increasing delivered && all = List.init s.messages Fun.id)

let prop_reliable_when_faultless =
  QCheck.Test.make ~name:"no faults: everything delivered, nothing retransmitted spuriously"
    ~count:50 scenario_arbitrary (fun s ->
      let s = { s with Gen.drop = 0.0; dup = 0.0; reorder = 0.0; partition = None } in
      let tp, delivered, undeliv = run_scenario s in
      let stats = Transport.stats tp in
      undeliv = []
      && delivered = List.init s.messages Fun.id
      && stats.Transport.packets_dropped = 0
      && stats.Transport.duplicated = 0)

let prop_deterministic =
  QCheck.Test.make ~name:"same scenario, same outcome" ~count:40 scenario_arbitrary (fun s ->
      let _, d1, u1 = run_scenario s in
      let _, d2, u2 = run_scenario s in
      d1 = d2 && u1 = u2)

(* ------------------------------------------------------------------ *)
(* Directed: idempotent duplicate suppression                          *)
(* ------------------------------------------------------------------ *)

let test_duplicate_data_suppressed () =
  (* replay every Data packet a second time, one tick later: each copy
     past the first must be discarded without a second delivery *)
  let tp =
    Transport.create ~n:2 ~params:Transport.default_params ~faults:Faults.none
      ~channel:(Channel.Uniform (5, 10)) ~rng:(Rng.create 11) ()
  in
  let q = EQ.create () in
  let delivered = ref [] in
  let apply now emits =
    ignore now;
    List.iter
      (function
        | Transport.Deliver { msg; _ } -> delivered := msg :: !delivered
        | Transport.Wire { at; wire } ->
            EQ.schedule q ~time:at wire;
            (match wire with
            | Transport.Data _ -> EQ.schedule q ~time:(at + 1) wire
            | Transport.Ack _ | Transport.Retx_timer _ -> ())
        | Transport.Undeliverable _ -> Alcotest.fail "nothing is undeliverable here")
      emits
  in
  for i = 0 to 29 do
    apply 0 (Transport.send tp ~now:0 ~src:0 ~dst:1 i)
  done;
  let rec loop () =
    match EQ.pop q with
    | None -> ()
    | Some (t, w) ->
        apply t (Transport.handle tp ~now:t w);
        loop ()
  in
  loop ();
  Alcotest.(check (list int)) "each message delivered exactly once"
    (List.init 30 Fun.id) (List.rev !delivered);
  let stats = Transport.stats tp in
  Alcotest.(check bool) "duplicates were seen and suppressed" true
    (stats.Transport.duplicates_suppressed >= 30);
  Alcotest.(check int) "drained" 0 (Transport.in_flight tp)

(* Satellite regression: the per-link table must be sparse.  A transport
   over n = 10_000 endpoints with 100 live links has to allocate O(links)
   words — the old [Array.init (n * n)] layout was ~10^8 link records
   before the first send. *)
let test_sparse_link_table () =
  let n = 10_000 in
  let tp =
    Transport.create ~n ~params:Transport.default_params ~faults:Faults.none
      ~channel:(Channel.Fixed 5) ~rng:(Rng.create 42) ()
  in
  let fresh = Obj.reachable_words (Obj.repr tp) in
  Alcotest.(check bool)
    (Printf.sprintf "construction allocates O(1), not O(n^2) (%d words)" fresh)
    true (fresh < 5_000);
  (* touch 100 distinct links *)
  let q = EQ.create () in
  let delivered = ref 0 in
  let rec apply emits =
    List.iter
      (function
        | Transport.Deliver _ -> incr delivered
        | Transport.Wire { at; wire } -> EQ.schedule q ~time:at wire
        | Transport.Undeliverable _ -> Alcotest.fail "faultless link abandoned a message")
      emits;
    match EQ.pop q with
    | None -> ()
    | Some (t, w) -> apply (Transport.handle tp ~now:t w)
  in
  for k = 0 to 99 do
    apply (Transport.send tp ~now:0 ~src:(k * 97 mod n) ~dst:(((k * 97) + 1) mod n) k)
  done;
  Alcotest.(check int) "100 live links" 100 (Transport.live_links tp);
  Alcotest.(check int) "all delivered" 100 !delivered;
  Alcotest.(check int) "drained" 0 (Transport.in_flight tp);
  let used = Obj.reachable_words (Obj.repr tp) in
  Alcotest.(check bool)
    (Printf.sprintf "after 100 links still O(links) (%d words)" used)
    true (used < 100_000)

let () =
  Alcotest.run "rdt_transport_random"
    [
      ( "random schedules",
        [
          qt prop_conservation;
          qt prop_exactly_once_fifo;
          qt prop_reliable_when_faultless;
          qt prop_deterministic;
        ] );
      ( "duplicates",
        [ Alcotest.test_case "idempotent re-handling of Data wires" `Quick test_duplicate_data_suppressed ] );
      ( "allocation",
        [ Alcotest.test_case "sparse link table at n=10_000" `Quick test_sparse_link_table ] );
    ]
