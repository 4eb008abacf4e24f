(* Adversarial partial-trace tests for the two trace consumers.

   [Replay.rebuild] and [Online.check_trace] both promise to reject
   structurally impossible traces — the kind a crash mid-rollback-cascade
   or a truncated JSONL file produces.  These tests pin the exact error
   messages on hand-built traces (orphaned deliveries, rollback to a
   checkpoint that never existed, deliveries of unknown or abandoned
   messages), exercise the interleaved rollback/replay path that must
   stay legal, and sweep every prefix of a real crash-recovery trace
   asserting the two consumers agree on accept/reject everywhere — up
   to the one sanctioned asymmetry, prefixes with messages still in
   flight, which only the pattern-finishing rebuild rejects — and that
   wherever both can, the rebuild and a checker session reconstruct the
   same pattern. *)

module Trace = Rdt_obs.Trace
module Replay = Rdt_obs.Replay
module Online = Rdt_check.Online
module Session = Rdt_check.Session
module Min_gcp = Rdt_core.Min_gcp
module P = Rdt_pattern.Pattern
module T = Rdt_pattern.Types
module Scenario = Rdt_fuzz.Scenario
module Exec = Rdt_fuzz.Exec

let check = Alcotest.(check bool)

let check_str = Alcotest.(check string)

let meta n = Trace.Meta { n; protocol = "bhmr"; env = "random"; seed = 0; mode = "test" }

let send msg src dst time = Trace.Send { msg; src; dst; time }

let deliver msg src dst time = Trace.Deliver { msg; src; dst; time }

let ckpt pid index time = Trace.Ckpt { pid; index; kind = T.Basic; time; tdv = None; preds = [] }

let rollback pid to_index time = Trace.Rollback { pid; to_index; time }

let replay msg src dst time = Trace.Replay { msg; src; dst; time }

let undeliverable msg src dst time = Trace.Undeliverable { msg; src; dst; time }

let rebuild_err events =
  match Replay.rebuild events with
  | Ok _ -> Alcotest.fail "rebuild unexpectedly succeeded"
  | Error e -> e

let check_trace_err events =
  match Online.check_trace events with
  | Ok _ -> Alcotest.fail "check_trace unexpectedly accepted"
  | Error e -> e

(* -- truncated mid-cascade: the receiver's rollback never made it ---- *)

let test_orphan_single () =
  (* pid 0 rolls its send back; pid 1's delivery survives — exactly what
     a trace truncated between the two halves of a cascade looks like *)
  let tr = [ meta 2; send 7 0 1 1; deliver 7 0 1 2; rollback 0 0 3 ] in
  check_str "rebuild" "surviving delivery of rolled-back send 7" (rebuild_err tr);
  check_str "check_trace" "surviving delivery of rolled-back send 7" (check_trace_err tr)

let test_orphan_plural () =
  let tr =
    [ meta 2; send 3 0 1 1; send 9 0 1 2; deliver 3 0 1 3; deliver 9 0 1 4; rollback 0 0 5 ]
  in
  (* the end-of-stream check lists every orphan; the rebuild stops at the
     first delivery it cannot satisfy *)
  check_str "check_trace lists all orphans" "surviving deliveries of rolled-back sends 3, 9"
    (check_trace_err tr);
  check_str "rebuild reports the first" "surviving delivery of rolled-back send 3"
    (rebuild_err tr)

(* -- impossible rollbacks and deliveries ----------------------------- *)

let test_rollback_missing_checkpoint () =
  let tr = [ meta 2; ckpt 0 1 1; rollback 0 5 2 ] in
  let e = "rollback of pid 0 to missing checkpoint 5" in
  check_str "rebuild" e (rebuild_err tr);
  check_str "check_trace" e (check_trace_err tr)

let test_deliver_unknown () =
  let tr = [ meta 2; deliver 42 0 1 1 ] in
  let e = "deliver of unknown message 42" in
  check_str "rebuild" e (rebuild_err tr);
  check_str "check_trace" e (check_trace_err tr)

let test_deliver_undeliverable () =
  let tr = [ meta 2; send 1 0 1 1; undeliverable 1 0 1 5; deliver 1 0 1 6 ] in
  let e = "deliver of undeliverable message 1" in
  check_str "rebuild" e (rebuild_err tr);
  check_str "check_trace" e (check_trace_err tr)

let test_deliver_twice () =
  (* message 7 delivered twice with no rollback in between *)
  let tr = [ meta 2; send 7 0 1 1; deliver 7 0 1 2; deliver 7 0 1 3 ] in
  check_str "rebuild" "Pattern.Builder.recv: message already delivered" (rebuild_err tr);
  check_str "check_trace" "deliver of already delivered message 7" (check_trace_err tr);
  (* after the receiver's rollback the delivery is undone, and the message
     may land again *)
  let again = [ meta 2; send 7 0 1 1; deliver 7 0 1 2; rollback 1 0 3; deliver 7 0 1 4 ] in
  check "rebuild accepts a redelivery after rollback" true (Result.is_ok (Replay.rebuild again));
  check "check_trace accepts a redelivery after rollback" true
    (Result.is_ok (Online.check_trace again))

let test_undeliverable_after_delivery () =
  (* the abandonment orphans the surviving delivery: a stream that ends
     with it is rejected by both consumers *)
  let tr = [ meta 2; send 1 0 1 1; deliver 1 0 1 2; undeliverable 1 0 1 5 ] in
  check_str "rebuild" "surviving delivery of rolled-back send 1" (rebuild_err tr);
  check_str "check_trace" "surviving delivery of rolled-back send 1" (check_trace_err tr);
  let engine = Online.create ~n:2 () in
  List.iter (Online.observe engine) (List.tl tr);
  check "orphaned until a rollback pops it" true (Online.orphan_messages engine = [ 1 ]);
  check "the abandonment is not counted as a rebuild" true (Online.rebuilds engine = 0);
  (* the receiver's rollback pops the delivery, and both accept *)
  let popped = tr @ [ rollback 1 0 6 ] in
  check "rebuild accepts the popped delivery" true (Result.is_ok (Replay.rebuild popped));
  check "check_trace accepts the popped delivery" true
    (match Online.check_trace popped with
    | Ok t -> Online.orphan_messages t = [] && Online.rebuilds t = 1
    | Error _ -> false)

(* -- interleaved rollback/replay: the legal shape of a cascade ------- *)

let test_interleaved_rollback_replay () =
  (* pid 1 delivers, rolls back to its initial checkpoint (undoing the
     delivery), the sender-side log replays the message, and a fresh
     delivery lands: no orphan, and the surviving pattern contains the
     second delivery only *)
  let tr =
    [
      meta 2;
      send 1 0 1 1;
      deliver 1 0 1 2;
      rollback 1 0 4;
      replay 1 0 1 5;
      deliver 1 0 1 6;
      ckpt 1 1 7;
    ]
  in
  let pat =
    match Replay.rebuild tr with
    | Ok p -> p
    | Error e -> Alcotest.failf "rebuild rejected a legal cascade: %s" e
  in
  let t =
    match Online.check_trace tr with
    | Ok t -> t
    | Error e -> Alcotest.failf "check_trace rejected a legal cascade: %s" e
  in
  check "no orphans" true (Online.orphan_messages t = []);
  let expected =
    let b = P.Builder.create ~n:2 in
    let h = P.Builder.send b ~src:0 ~dst:1 in
    P.Builder.recv b h;
    ignore (P.Builder.checkpoint ~kind:T.Basic ~time:7 b 1);
    P.Builder.finish b
  in
  check "rebuilt pattern keeps only the surviving delivery" true (P.equal pat expected);
  check "verdicts agree" true
    (Online.rdt_so_far t = (Rdt_core.Checker.run pat).Rdt_core.Checker.rdt)

(* -- every prefix of a real crash-recovery trace --------------------- *)

let crashing_run () =
  (* a real crashed-and-recovered execution from the fuzzer's generator:
     a campaign scenario with crashes on a reliable network, cut to 20
     messages (a short trace) *)
  let rec go seed =
    if seed > 100 then Alcotest.fail "no crashing scenario within 100 seeds"
    else
      let sc = Scenario.generate ~seed in
      if sc.Scenario.crashes = [] || not (Rdt_dist.Faults.is_none sc.Scenario.faults) then
        go (seed + 1)
      else
        let sc = { sc with Scenario.messages = 20 } in
        let rep = Exec.run sc in
        let has_rollback =
          List.exists (function Trace.Rollback _ -> true | _ -> false) rep.Exec.events
        in
        if rep.Exec.outcome = Exec.Pass && has_rollback then rep.Exec.events else go (seed + 1)
  in
  go 1

(* The pattern a checker session reconstructs from its surviving history
   must be the rebuild's, up to what the session does not keep (original
   times and checkpoint kinds): same events per process, same messages,
   same min/max consistent global checkpoint for every checkpoint. *)
let same_as_session compared i prefix pat =
  let n = P.n pat in
  let sess = Session.ephemeral ~n () in
  match Session.feed sess prefix with
  | Error _ -> ()
  | Ok () -> (
      match Session.pattern sess with
      | Error _ -> ()
      | Ok spat ->
          incr compared;
          let what fmt = Printf.sprintf ("prefix of %d events: " ^^ fmt) i in
          for pid = 0 to n - 1 do
            check (what "events of pid %d" pid) true (P.events pat pid = P.events spat pid)
          done;
          check (what "messages") true (P.messages pat = P.messages spat);
          P.iter_ckpts pat (fun c ->
              let id = (c.T.owner, c.T.index) in
              check (what "minimum of C(%d,%d)" (fst id) (snd id)) true
                (Min_gcp.minimum pat id = Min_gcp.minimum spat id);
              check (what "maximum of C(%d,%d)" (fst id) (snd id)) true
                (Min_gcp.maximum_of_set pat [ id ] = Min_gcp.maximum_of_set spat [ id ])))

let test_prefix_agreement () =
  let events = crashing_run () in
  let compared = ref 0 in
  let rec sweep prefix_rev rest i =
    match rest with
    | [] -> ()
    | ev :: rest ->
        let prefix = List.rev (ev :: prefix_rev) in
        let a = Replay.rebuild prefix in
        let b = Online.check_trace prefix in
        (match a with Ok pat -> same_as_session compared i prefix pat | Error _ -> ());
        (match (a, b) with
        | Ok _, Ok _ | Error _, Error _ -> ()
        | Error "Pattern.Builder.finish: undelivered messages remain", Ok _ ->
            (* the one sanctioned asymmetry: an in-flight message is
               legal mid-run for the engine, but the rebuild must finish
               a pattern and a finished pattern has no open sends *)
            ()
        | a, b ->
            Alcotest.failf "prefix of %d events (%s): rebuild says %s, check_trace says %s" i
              (String.concat " " (List.map Trace.kind_name prefix))
              (match a with Ok _ -> "ok" | Error e -> e)
              (match b with Ok _ -> "ok" | Error e -> e));
        sweep (ev :: prefix_rev) rest (i + 1)
  in
  sweep [] events 1;
  check "some prefixes compared with a session" true (!compared > 0);
  (* the full trace is in particular accepted by both *)
  check "full trace accepted" true (Result.is_ok (Replay.rebuild events))

let () =
  Alcotest.run "rdt_replay_adversarial"
    [
      ( "orphans",
        [
          Alcotest.test_case "single orphaned delivery" `Quick test_orphan_single;
          Alcotest.test_case "plural orphan report" `Quick test_orphan_plural;
        ] );
      ( "impossible",
        [
          Alcotest.test_case "rollback to missing checkpoint" `Quick
            test_rollback_missing_checkpoint;
          Alcotest.test_case "deliver of unknown message" `Quick test_deliver_unknown;
          Alcotest.test_case "deliver of abandoned message" `Quick test_deliver_undeliverable;
          Alcotest.test_case "deliver of delivered message" `Quick test_deliver_twice;
          Alcotest.test_case "abandon of delivered message" `Quick
            test_undeliverable_after_delivery;
        ] );
      ( "cascade",
        [
          Alcotest.test_case "interleaved rollback and replay" `Quick
            test_interleaved_rollback_replay;
          Alcotest.test_case "every prefix: consumers agree" `Quick test_prefix_agreement;
        ] );
    ]
