(* Tests for rdt_recovery: recovery lines, domino effect, causal
   breakpoints, output commit, and the stable-storage model. *)

module P = Rdt_pattern.Pattern
module T = Rdt_pattern.Types
module Consistency = Rdt_pattern.Consistency
module Recovery_line = Rdt_recovery.Recovery_line
module Breakpoint = Rdt_recovery.Breakpoint
module Storage = Rdt_recovery.Storage

let check = Alcotest.(check bool)
let qt = QCheck_alcotest.to_alcotest

let run ~protocol ~envname ~n ~messages ~seed =
  let p = Rdt_core.Registry.find_exn protocol in
  let env = Rdt_workloads.Registry.find_exn envname in
  (Rdt_core.Runtime.run
     {
       (Rdt_core.Runtime.default_config env p) with
       Rdt_core.Runtime.n;
       seed;
       max_messages = messages;
     })
    .Rdt_core.Runtime.pattern

(* ------------------------------------------------------------------ *)
(* Recovery lines                                                      *)
(* ------------------------------------------------------------------ *)

let test_line_is_consistent_and_bounded () =
  let pat = run ~protocol:"bhmr" ~envname:"random" ~n:5 ~messages:400 ~seed:21 in
  let bounds = Array.init 5 (fun i -> P.last_index pat i) in
  bounds.(2) <- P.last_index pat 2 / 2;
  let line = Recovery_line.max_consistent_bounded pat bounds in
  check "consistent" true (Consistency.consistent_global pat line);
  check "bounded" true (Array.for_all2 ( >= ) bounds line)

let test_line_is_maximal () =
  let pat = run ~protocol:"bhmr" ~envname:"client-server" ~n:4 ~messages:300 ~seed:5 in
  let bounds = Array.init 4 (fun i -> P.last_index pat i) in
  bounds.(1) <- P.last_index pat 1 / 2;
  let line = Recovery_line.max_consistent_bounded pat bounds in
  (* raising any single coordinate (within bounds) must break consistency *)
  Array.iteri
    (fun i x ->
      if x < bounds.(i) then begin
        let raised = Array.copy line in
        raised.(i) <- x + 1;
        check "raising breaks consistency" false (Consistency.consistent_global pat raised)
      end)
    line

let test_recover_no_crash_is_top () =
  let pat = run ~protocol:"bhmr" ~envname:"random" ~n:4 ~messages:300 ~seed:2 in
  let outcome = Recovery_line.recover pat [] in
  (* with final checkpoints and empty channels, the last global checkpoint
     is consistent: nothing rolls back *)
  Alcotest.(check int) "no domino" 0 outcome.Recovery_line.domino_depth;
  check "nothing lost" true (Array.for_all (( = ) 0) outcome.Recovery_line.lost_events)

let test_recover_validation () =
  let pat = run ~protocol:"bhmr" ~envname:"random" ~n:4 ~messages:100 ~seed:2 in
  Alcotest.check_raises "bad pid" (Invalid_argument "Recovery_line.recover: pid out of range")
    (fun () -> ignore (Recovery_line.recover pat [ { Recovery_line.pid = 9; available = 0 } ]));
  Alcotest.check_raises "dup crash" (Invalid_argument "Recovery_line.recover: duplicate crash")
    (fun () ->
      ignore
        (Recovery_line.recover pat
           [ { Recovery_line.pid = 1; available = 0 }; { Recovery_line.pid = 1; available = 0 } ]))

let test_domino_effect_contrast () =
  (* crash process 0 at its first checkpoint: with `none` on a chatty
     pattern everything cascades; under bhmr the others survive with a
     consistent line *)
  let crash = [ { Recovery_line.pid = 0; available = 1 } ] in
  let pat_none = run ~protocol:"none" ~envname:"client-server" ~n:5 ~messages:600 ~seed:4 in
  let pat_bhmr = run ~protocol:"bhmr" ~envname:"client-server" ~n:5 ~messages:600 ~seed:4 in
  let o_none = Recovery_line.recover pat_none crash in
  let o_bhmr = Recovery_line.recover pat_bhmr crash in
  check "both consistent" true
    (Consistency.consistent_global pat_none o_none.Recovery_line.line
    && Consistency.consistent_global pat_bhmr o_bhmr.Recovery_line.line);
  (* the uncoordinated run should cascade deep; in a client-server chain
     everything depends on everything, so survivors lose heavily *)
  check "domino under none" true (o_none.Recovery_line.domino_depth > 0)

let recovery_line_matches_reference =
  QCheck.Test.make ~name:"recovery line = greatest consistent vector under bounds" ~count:40
    Rdt_test_helpers.Gen.small_pattern_arbitrary (fun pat ->
      let n = P.n pat in
      let bounds = Array.init n (fun i -> P.last_index pat i) in
      (* give process 0 a lowered bound when possible *)
      if bounds.(0) > 0 then bounds.(0) <- bounds.(0) - 1;
      let line = Recovery_line.max_consistent_bounded pat bounds in
      (* reference: maximum over exhaustive enumeration *)
      let best = ref None in
      Seq.iter
        (fun v ->
          if Array.for_all2 ( >= ) bounds v && Rdt_test_helpers.Naive.consistent_global pat v
          then
            match !best with
            | None -> best := Some (Array.copy v)
            | Some b -> Array.iteri (fun i x -> b.(i) <- max b.(i) x) v)
        (Rdt_test_helpers.Naive.all_global_checkpoints pat);
      match !best with
      | None -> false (* impossible: all-zeros is consistent *)
      | Some b -> b = line)

(* ------------------------------------------------------------------ *)
(* Breakpoints                                                         *)
(* ------------------------------------------------------------------ *)

let test_breakpoint_on_rdt_run () =
  let pat = run ~protocol:"bhmr" ~envname:"random" ~n:5 ~messages:400 ~seed:31 in
  P.iter_ckpts pat (fun c ->
      let id = (c.T.owner, c.T.index) in
      match Breakpoint.compute pat id with
      | None -> Alcotest.fail "breakpoint must exist under RDT"
      | Some bp ->
          check "on the fly when TDV recorded" true
            (bp.Breakpoint.on_the_fly || c.T.tdv = None);
          check "consistent" true (Consistency.consistent_global pat bp.Breakpoint.line);
          Alcotest.(check int) "contains target" (snd id) bp.Breakpoint.line.(fst id))

let test_breakpoint_restore_order () =
  let pat = run ~protocol:"bhmr" ~envname:"client-server" ~n:4 ~messages:300 ~seed:3 in
  let id = (2, P.last_index pat 2 / 2) in
  match Breakpoint.compute pat id with
  | None -> Alcotest.fail "expected a breakpoint"
  | Some bp ->
      let order = Breakpoint.restore_order pat bp in
      Alcotest.(check int) "one per process" (P.n pat) (List.length order);
      (* no checkpoint may causally precede one that appears before it *)
      let rec pairs = function
        | [] -> ()
        | a :: rest ->
            List.iter
              (fun b ->
                check "order respects causality" false
                  (Rdt_pattern.Chains.causally_precedes pat b a))
              rest;
            pairs rest
      in
      pairs order

let test_breakpoint_none_for_useless () =
  let pat = Rdt_test_helpers.Fixtures.zcycle_fixture () in
  check "no breakpoint on a Z-cycle" true (Breakpoint.compute pat (1, 1) = None)

(* ------------------------------------------------------------------ *)
(* Message logging                                                     *)
(* ------------------------------------------------------------------ *)

let test_message_log_classification () =
  (* one message per class around the line {C(0,1), C(1,1)} *)
  let module B = P.Builder in
  let b = B.create ~n:2 in
  let before = B.send b ~src:0 ~dst:1 in
  B.recv b before;
  (* [crossing] is sent in I_{0,1} but delivered after C_{1,1} *)
  let crossing = B.send b ~src:0 ~dst:1 in
  ignore (B.checkpoint b 0) (* C_{0,1} *);
  ignore (B.checkpoint b 1) (* C_{1,1} *);
  B.recv b crossing;
  (* [orphan] is sent after C_{0,1}, delivered... after C_{1,1} too, so we
     test the orphan class against the *lower* line below *)
  let after = B.send b ~src:0 ~dst:1 in
  B.recv b after;
  let pat = B.finish b in
  let line = [| 1; 1 |] in
  Alcotest.(check (list int)) "in transit" [ crossing ] (Rdt_recovery.Message_log.in_transit pat ~line);
  Alcotest.(check (list int)) "no orphans (consistent line)" []
    (Rdt_recovery.Message_log.orphans pat ~line);
  (* against the inconsistent line {C(0,0), C(1,1)}: [before] and
     [crossing] become orphans *)
  let bad_line = [| 0; 1 |] in
  Alcotest.(check (list int)) "orphans of inconsistent line" [ before ]
    (Rdt_recovery.Message_log.orphans pat ~line:bad_line)

let test_message_log_validation () =
  let pat = Rdt_test_helpers.Fixtures.causal_ping_pong () in
  Alcotest.check_raises "bad line length"
    (Invalid_argument "Message_log: line length mismatch") (fun () ->
      ignore (Rdt_recovery.Message_log.orphans pat ~line:[| 0 |]))

let orphans_empty_iff_consistent =
  QCheck.Test.make ~name:"orphans empty iff the line is consistent" ~count:60
    Rdt_test_helpers.Gen.small_pattern_arbitrary (fun pat ->
      let ok = ref true in
      Seq.iter
        (fun v ->
          let empty = Rdt_recovery.Message_log.orphans pat ~line:v = [] in
          if empty <> Consistency.consistent_global pat v then ok := false)
        (Rdt_test_helpers.Naive.all_global_checkpoints pat);
      !ok)

let replay_covers_the_cut =
  QCheck.Test.make ~name:"every message is in-transit, collectible or future" ~count:60
    Rdt_test_helpers.Gen.small_pattern_arbitrary (fun pat ->
      match Consistency.min_consistent_containing pat [ (0, 0) ] with
      | None -> true
      | Some line ->
          let in_transit = Rdt_recovery.Message_log.in_transit pat ~line in
          (* log entries a committed line makes discardable: delivered before it *)
          let collectible =
            List.filter
              (fun m ->
                let msg = P.message pat m in
                msg.Rdt_pattern.Types.recv_interval <= line.(msg.Rdt_pattern.Types.dst))
              (List.init (P.num_messages pat) Fun.id)
          in
          let classified m =
            List.mem m in_transit || List.mem m collectible
            || (P.message pat m).Rdt_pattern.Types.send_interval > line.((P.message pat m).Rdt_pattern.Types.src)
          in
          List.for_all classified (List.init (P.num_messages pat) Fun.id)
          && List.for_all (fun m -> not (List.mem m collectible)) in_transit)

(* ------------------------------------------------------------------ *)
(* Storage                                                             *)
(* ------------------------------------------------------------------ *)

let test_storage_basics () =
  let pat = run ~protocol:"bhmr" ~envname:"random" ~n:3 ~messages:150 ~seed:23 in
  let s = Storage.create pat in
  check "initials stable" true (Storage.is_stable s (0, 0));
  check "others not" false (Storage.is_stable s (0, 1));
  Alcotest.(check int) "count" 3 (Storage.stable_count s);
  Storage.make_stable s (0, 1);
  Storage.make_stable s (0, 2);
  Storage.make_stable s (0, 2);
  check "flushed" true (Storage.is_stable s (0, 2));
  Alcotest.(check int) "idempotent" 5 (Storage.stable_count s)

let test_storage_gc () =
  let pat = run ~protocol:"bhmr" ~envname:"random" ~n:3 ~messages:150 ~seed:23 in
  let s = Storage.create pat in
  P.iter_ckpts pat (fun c -> Storage.make_stable s (c.T.owner, c.T.index));
  let total = Storage.stable_count s in
  let line = Array.init 3 (fun i -> P.last_index pat i) in
  let reclaimed = Storage.collect s ~line in
  Alcotest.(check int) "reclaims all but the line and the initials"
    (total - 6)
    reclaimed;
  check "line survivors stable" true
    (Array.to_list line |> List.mapi (fun i x -> Storage.is_stable s (i, x)) |> List.for_all Fun.id)

(* Regression: [collect] used to reclaim the initial checkpoints too,
   after which the line of all zeros was gone — a line recovery could
   not actually restore. *)
let test_storage_gc_keeps_initials () =
  let pat = run ~protocol:"bhmr" ~envname:"random" ~n:3 ~messages:150 ~seed:23 in
  let s = Storage.create pat in
  P.iter_ckpts pat (fun c -> Storage.make_stable s (c.T.owner, c.T.index));
  let line = Array.init 3 (fun i -> P.last_index pat i) in
  ignore (Storage.collect s ~line);
  for i = 0 to 2 do
    check "initial still stable after collect" true (Storage.is_stable s (i, 0))
  done;
  (* collecting again, down to the line of all zeros, must spare them too *)
  ignore (Storage.collect s ~line:(Array.make 3 0));
  ignore (Storage.collect s ~line);
  for i = 0 to 2 do
    check "initial survives repeated collection" true (Storage.is_stable s (i, 0))
  done

let () =
  Alcotest.run "rdt_recovery"
    [
      ( "recovery-line",
        [
          Alcotest.test_case "consistent and bounded" `Quick test_line_is_consistent_and_bounded;
          Alcotest.test_case "maximal" `Quick test_line_is_maximal;
          Alcotest.test_case "no crash, no rollback" `Quick test_recover_no_crash_is_top;
          Alcotest.test_case "validation" `Quick test_recover_validation;
          Alcotest.test_case "domino contrast" `Quick test_domino_effect_contrast;
          qt recovery_line_matches_reference;
        ] );
      ( "breakpoint",
        [
          Alcotest.test_case "exists and consistent under RDT" `Quick test_breakpoint_on_rdt_run;
          Alcotest.test_case "restore order" `Quick test_breakpoint_restore_order;
          Alcotest.test_case "none on Z-cycle" `Quick test_breakpoint_none_for_useless;
        ] );
      ( "message-log",
        [
          Alcotest.test_case "classification" `Quick test_message_log_classification;
          Alcotest.test_case "validation" `Quick test_message_log_validation;
          qt orphans_empty_iff_consistent;
          qt replay_covers_the_cut;
        ] );
      ( "storage",
        [
          Alcotest.test_case "basics" `Quick test_storage_basics;
          Alcotest.test_case "garbage collection" `Quick test_storage_gc;
          Alcotest.test_case "gc keeps initial checkpoints" `Quick test_storage_gc_keeps_initials;
        ] );
    ]
