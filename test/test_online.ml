(* Differential suite for the incremental online checker.

   The online engine must agree with the offline checkers everywhere:
   - pattern mode: [Online.check_pattern] (and [Checker.run ~algo:`Online])
     reproduces the R-graph/TDV checker's verdict, dependency count and
     violation report exactly, on random small patterns;
   - stream mode: feeding a recorded run trace gives the offline verdict
     of the finished pattern, across registry protocols x environments x
     seeds, with and without network faults and crash/recovery (where the
     engine must rebuild through Rollback/Replay events);
   - prefix mode: after EVERY event of a live trace, [rdt_so_far] equals
     the offline verdict of the pattern that prefix produces, and the
     latched [first_violation] index equals the offline linear scan's. *)

module P = Rdt_pattern.Pattern
module T = Rdt_pattern.Types
module Tdv = Rdt_pattern.Tdv
module Checker = Rdt_core.Checker
module Runtime = Rdt_core.Runtime
module Registry = Rdt_core.Registry
module Trace = Rdt_obs.Trace
module Online = Rdt_check.Online

let check = Alcotest.(check bool)

let qt = QCheck_alcotest.to_alcotest

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

(* ------------------------------------------------------------------ *)
(* Pattern mode                                                        *)
(* ------------------------------------------------------------------ *)

let online_equals_rgraph_on_patterns =
  QCheck.Test.make ~name:"online report = rgraph report on random patterns" ~count:100
    Rdt_test_helpers.Gen.small_recipe_arbitrary (fun recipe ->
      let pat = Rdt_test_helpers.Gen.pattern_of_recipe recipe in
      let off = Checker.run pat in
      let on = Checker.run ~algo:`Online pat in
      on.Checker.rdt = off.Checker.rdt
      && on.Checker.checked = off.Checker.checked
      && on.Checker.violations = off.Checker.violations)

let online_agrees_with_all_checkers =
  QCheck.Test.make ~name:"online verdict = chains = doubling" ~count:60
    Rdt_test_helpers.Gen.small_recipe_arbitrary (fun recipe ->
      let pat = Rdt_test_helpers.Gen.pattern_of_recipe recipe in
      let v = (Checker.run ~algo:`Online pat).Checker.rdt in
      v = (Checker.run ~algo:`Chains pat).Checker.rdt
      && v = (Checker.run ~algo:`Doubling pat).Checker.rdt)

(* [Online.reaches], [in_cycle] and [zcycle] against the offline R-graph
   of [pat]: pairwise reachability and Z-cycle membership of every
   checkpoint, and the engine's Z-cycle flag is "some checkpoint is on a
   cycle". *)
let reach_agrees eng pat =
  let g = Rdt_pattern.Rgraph.build pat in
  let cks = P.fold_ckpts pat ~init:[] ~f:(fun acc c -> (c.T.owner, c.T.index) :: acc) in
  let pp = Format.asprintf "%a" T.pp_ckpt_id in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if Online.reaches eng a b <> Rdt_pattern.Rgraph.reaches g a b then
            QCheck.Test.fail_reportf "reaches disagrees on %s ~> %s" (pp a) (pp b))
        cks;
      if Online.in_cycle eng a <> Rdt_pattern.Rgraph.in_cycle g a then
        QCheck.Test.fail_reportf "in_cycle disagrees on %s" (pp a))
    cks;
  if Online.zcycle eng <> List.exists (Rdt_pattern.Rgraph.in_cycle g) cks then
    QCheck.Test.fail_report "zcycle disagrees"

let online_reachability_equals_rgraph =
  QCheck.Test.make ~name:"online reaches/in_cycle/zcycle = rgraph on random patterns" ~count:100
    Rdt_test_helpers.Gen.small_recipe_arbitrary (fun recipe ->
      let pat = Rdt_test_helpers.Gen.pattern_of_recipe recipe in
      reach_agrees (Online.check_pattern pat) pat;
      true)

(* ------------------------------------------------------------------ *)
(* Stream mode: live traces of full runs                               *)
(* ------------------------------------------------------------------ *)

let stream_verdict label events pat =
  match Online.check_trace events with
  | Error e -> Alcotest.failf "%s: online engine rejected the trace: %s" label e
  | Ok t ->
      let off = Checker.run pat in
      if Online.rdt_so_far t <> off.Checker.rdt then
        Alcotest.failf "%s: online verdict %b <> offline %b" label (Online.rdt_so_far t)
          off.Checker.rdt;
      if Online.checked t <> off.Checker.checked then
        Alcotest.failf "%s: online checked %d <> offline %d" label (Online.checked t)
          off.Checker.checked;
      if off.Checker.rdt <> (Checker.run ~algo:`Chains pat).Checker.rdt then
        Alcotest.failf "%s: chains disagrees" label;
      if off.Checker.rdt <> (Checker.run ~algo:`Doubling pat).Checker.rdt then
        Alcotest.failf "%s: doubling disagrees" label;
      t

let test_stream_matrix () =
  List.iter
    (fun protocol ->
      let pname = Rdt_core.Protocol.name protocol in
      List.iter
        (fun envname ->
          List.iter
            (fun seed ->
              let tr = Trace.ring ~capacity:100_000 in
              let r = Runtime.run (runtime_config ~envname ~seed ~trace:tr protocol) in
              let label = Printf.sprintf "%s/%s seed %d" pname envname seed in
              ignore (stream_verdict label (Trace.events tr) r.Runtime.pattern))
            [ 1; 2 ])
        [ "random"; "group"; "client-server" ])
    Registry.all

let test_stream_under_faults () =
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
    (fun pname ->
      List.iter
        (fun seed ->
          let tr = Trace.ring ~capacity:200_000 in
          let cfg =
            runtime_config ~envname:"random" ~seed ~trace:tr ~faults
              ~transport:Rdt_dist.Transport.default_params (Registry.find_exn pname)
          in
          let r = Runtime.run cfg in
          let label = Printf.sprintf "faulty %s seed %d" pname seed in
          let t = stream_verdict label (Trace.events tr) r.Runtime.pattern in
          ignore t)
        [ 1; 2; 3 ])
    [ "bhmr"; "none" ]

let test_stream_crashrun () =
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
          let p = Registry.find_exn pname in
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
          let events = Trace.events tr in
          check "rollbacks recorded" true
            (List.exists (function Trace.Rollback _ -> true | _ -> false) events);
          let label = Printf.sprintf "crashrun %s seed %d" pname seed in
          let t = stream_verdict label events r.Runtime.pattern in
          check (label ^ ": engine rebuilt through rollbacks") true (Online.rebuilds t > 0))
        [ 1; 2; 3 ])
    [
      ("bhmr", Rdt_dist.Faults.none, None);
      ("fdas", { Rdt_dist.Faults.none with drop = 0.15 }, Some Rdt_dist.Transport.default_params);
    ]

(* ------------------------------------------------------------------ *)
(* Prefix mode: the per-event verdict against an offline oracle        *)
(* ------------------------------------------------------------------ *)

(* The pattern a (rollback-free) trace prefix produces.  A message still
   in flight at the cut cannot be expressed by the builder (finish would
   reject the undelivered send), but for the verdict its send is exactly
   an internal event: no R-edge, no TDV effect, one event in the open
   interval. *)
let prefix_pattern ~n events =
  let delivered = Hashtbl.create 64 in
  List.iter
    (fun ev -> match ev with Trace.Deliver { msg; _ } -> Hashtbl.replace delivered msg () | _ -> ())
    events;
  let b = P.Builder.create ~n in
  let handles = Hashtbl.create 64 in
  List.iter
    (fun ev ->
      match ev with
      | Trace.Send { msg; src; dst; _ } ->
          if Hashtbl.mem delivered msg then
            Hashtbl.replace handles msg (P.Builder.send b ~src ~dst)
          else P.Builder.internal b src
      | Trace.Deliver { msg; _ } -> P.Builder.recv b (Hashtbl.find handles msg)
      | Trace.Internal { pid; _ } -> P.Builder.internal b pid
      | Trace.Ckpt { kind = T.Initial; _ } -> ()
      | Trace.Ckpt { pid; kind; time; tdv; _ } ->
          ignore (P.Builder.checkpoint ~kind ?tdv ~time b pid)
      | _ -> ())
    events;
  P.Builder.finish b

let test_prefix_oracle () =
  (* one protocol that violates RDT and one that keeps it *)
  List.iter
    (fun (pname, seed) ->
      let tr = Trace.ring ~capacity:50_000 in
      let r =
        Runtime.run
          (runtime_config ~n:4 ~messages:60 ~envname:"random" ~seed ~trace:tr
             (Registry.find_exn pname))
      in
      ignore r;
      let events = Trace.events tr in
      let t = Online.create ~n:4 () in
      let oracle_first = ref None in
      List.iteri
        (fun k ev ->
          Online.observe t ev;
          let prefix = List.filteri (fun i _ -> i <= k) events in
          let report = Checker.run (prefix_pattern ~n:4 prefix) in
          let off = report.Checker.rdt in
          if off <> Online.rdt_so_far t then
            Alcotest.failf "%s seed %d: prefix %d/%d: online %b <> offline %b" pname seed k
              (List.length events) (Online.rdt_so_far t) off;
          if Online.checked t <> report.Checker.checked then
            Alcotest.failf "%s seed %d: prefix %d: online checked %d <> offline %d" pname seed k
              (Online.checked t) report.Checker.checked;
          let violations =
            Online.violations t
            |> List.filteri (fun i _ -> i < Checker.max_reported)
            |> List.map (fun (v : Online.violation) ->
                   {
                     Checker.from_ckpt = v.Online.from_ckpt;
                     to_ckpt = v.Online.to_ckpt;
                     tracked = Some v.Online.tracked;
                   })
          in
          if violations <> report.Checker.violations then
            Alcotest.failf "%s seed %d: prefix %d: online violations differ from offline" pname
              seed k;
          if !oracle_first = None && not off then oracle_first := Some k)
        events;
      if Online.first_violation t <> !oracle_first then
        Alcotest.failf "%s seed %d: first violation %s <> oracle %s" pname seed
          (match Online.first_violation t with None -> "none" | Some i -> string_of_int i)
          (match !oracle_first with None -> "none" | Some i -> string_of_int i))
    [ ("none", 1); ("none", 2); ("bhmr", 1) ];
  (* the violating cell must actually violate, or the test is vacuous *)
  let tr = Trace.ring ~capacity:50_000 in
  let _ =
    Runtime.run
      (runtime_config ~n:4 ~messages:60 ~envname:"random" ~seed:1 ~trace:tr
         (Registry.find_exn "none"))
  in
  match Online.check_trace (Trace.events tr) with
  | Error e -> Alcotest.fail e
  | Ok t -> check "none seed 1 violates" true (Online.first_violation t <> None)

(* Per-event cost must not grow with history: the max-reach join costs
   at most n entries per R-edge, where a per-pair walk costs every node
   an edge newly connects. *)
let test_cost_does_not_grow () =
  let tr = Trace.ring ~capacity:50_000 in
  ignore
    (Runtime.run
       (runtime_config ~n:16 ~messages:3000 ~envname:"random" ~seed:1 ~trace:tr
          (Registry.find_exn "bhmr")));
  let events = Array.of_list (Trace.events tr) in
  let total = Array.length events and t = Online.create ~n:16 () in
  let tenth = total / 10 in
  let words_over lo hi =
    let before = Gc.minor_words () in
    for k = lo to hi - 1 do
      Online.observe t events.(k)
    done;
    (Gc.minor_words () -. before) /. float_of_int (hi - lo)
  in
  let first = words_over 0 tenth in
  ignore (words_over tenth (total - tenth));
  let last = words_over (total - tenth) total in
  check
    (Printf.sprintf "%d events: last tenth %.0f words/event <= 4 x first tenth %.0f" total last
       first)
    true
    (last <= 4. *. first)

(* The step's allocation, pinned: over a fixed BHMR/random n = 16 trace
   (the shape of the durable benchmark's stream), the exact minor words
   Online allocates per event.  The step allocates what a step must keep
   (history entries, table bindings, frozen vectors, new nodes) and no
   worklist, closure or reference cell: 31.7 words/event when this bound
   was set, 53.2 with a queue, a closure and a reference per propagated
   edge and per verdict scan. *)
let words_per_event_bound = 33.

let test_step_allocation () =
  let tr = Trace.ring ~capacity:50_000 in
  ignore
    (Runtime.run
       (runtime_config ~n:16 ~messages:2000 ~envname:"random" ~seed:7 ~trace:tr
          (Registry.find_exn "bhmr")));
  let events = Trace.events tr in
  let t = Online.create ~n:16 () in
  let before = Gc.minor_words () in
  List.iter (Online.observe t) events;
  let per_event = (Gc.minor_words () -. before) /. float_of_int (List.length events) in
  check
    (Printf.sprintf "%.2f words/event <= %.0f" per_event words_per_event_bound)
    true
    (per_event <= words_per_event_bound)

(* ------------------------------------------------------------------ *)
(* Engine-level unit tests                                             *)
(* ------------------------------------------------------------------ *)

(* the backwards same-process R-path fixture of test_oracle, as a stream:
   C_{0,2} ~> C_{0,1} through a Z-cycle-free zigzag; then a rollback that
   removes the offending send and clears the live verdict while the
   first-violation latch stays *)
let test_rollback_retraction () =
  let t = Online.create ~n:2 () in
  let ev l = List.iter (Online.observe t) l in
  ev
    [
      Trace.Send { msg = 2; src = 1; dst = 0; time = 10 } (* event 0 *);
      Trace.Deliver { msg = 2; src = 1; dst = 0; time = 20 } (* 1 *);
      Trace.Ckpt { pid = 0; index = 1; kind = T.Basic; time = 30; tdv = None; preds = [] } (* 2 *);
      Trace.Ckpt { pid = 0; index = 2; kind = T.Basic; time = 40; tdv = None; preds = [] } (* 3 *);
      Trace.Send { msg = 1; src = 0; dst = 1; time = 50 } (* 4 *);
    ];
  check "still fine before the closing delivery" true (Online.rdt_so_far t);
  ev [ Trace.Deliver { msg = 1; src = 0; dst = 1; time = 60 } (* 5: closes the R-path *) ];
  check "violated after delivery" false (Online.rdt_so_far t);
  check "first violation latched at event 5" true (Online.first_violation t = Some 5);
  check "backwards pair is a cycle" true (Online.zcycle t);
  check "C(0,2) reaches C(0,1)" true (Online.reaches t (0, 2) (0, 1));
  check "C(0,2) ~> C(0,1) not trackable" false (Online.trackable t (0, 2) (0, 1));
  (* the domino cascade: P1's rollback orphans P0's delivery of m2 until
     P0's own rollback arrives; the verdict in between is computed on the
     cleaned state *)
  ev [ Trace.Rollback { pid = 1; to_index = 0; time = 70 } (* 6 *) ];
  check "m2's delivery is orphaned mid-cascade" true (Online.orphan_messages t = [ 2 ]);
  check "verdict already clears on the cleaned state" true (Online.rdt_so_far t);
  ev [ Trace.Rollback { pid = 0; to_index = 0; time = 71 } (* 7 *) ];
  check "cascade complete: no orphans" true (Online.orphan_messages t = []);
  check "verdict clear after the rollback" true (Online.rdt_so_far t);
  check "latch survives the rollback" true (Online.first_violation t = Some 5);
  check "two rebuilds" true (Online.rebuilds t = 2);
  check "rolled-back checkpoint is gone" true
    (match Online.trackable t (0, 2) (0, 0) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* an orphaned stream end is inconsistent, exactly like Replay.rebuild *)
  match
    Online.check_trace
      [
        Trace.Send { msg = 9; src = 0; dst = 1; time = 1 };
        Trace.Deliver { msg = 9; src = 0; dst = 1; time = 2 };
        Trace.Rollback { pid = 0; to_index = 0; time = 3 };
      ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stream ending mid-cascade accepted"

(* A stream that ends mid-cascade must name *every* orphaned message in
   its error (parity with Replay.rebuild), not just the first one the
   table iteration happened to yield. *)
let test_orphan_end_reports_all () =
  (match
     Online.check_trace
       [
         Trace.Ckpt { pid = 0; index = 1; kind = T.Basic; time = 0; tdv = None; preds = [] };
         Trace.Send { msg = 4; src = 0; dst = 1; time = 1 };
         Trace.Send { msg = 2; src = 0; dst = 1; time = 2 };
         Trace.Deliver { msg = 4; src = 0; dst = 1; time = 3 };
         Trace.Deliver { msg = 2; src = 0; dst = 1; time = 4 };
         Trace.Rollback { pid = 0; to_index = 1; time = 5 };
       ]
   with
  | Ok _ -> Alcotest.fail "stream ending with two orphans accepted"
  | Error e ->
      Alcotest.(check string)
        "all orphan ids, sorted" "surviving deliveries of rolled-back sends 2, 4" e);
  match
    Online.check_trace
      [
        Trace.Send { msg = 9; src = 0; dst = 1; time = 1 };
        Trace.Deliver { msg = 9; src = 0; dst = 1; time = 2 };
        Trace.Rollback { pid = 0; to_index = 0; time = 3 };
      ]
  with
  | Ok _ -> Alcotest.fail "stream ending with one orphan accepted"
  | Error e ->
      Alcotest.(check string) "singular form" "surviving delivery of rolled-back send 9" e

(* Export/restore: the recovered engine must answer every query exactly
   like the exporting one — including mid-cascade orphans, the latched
   first violation and the rebuild count — and keep agreeing on the rest
   of the stream. *)
let test_export_restore_roundtrip () =
  List.iter
    (fun (pname, envname, seed) ->
      let tr = Trace.ring ~capacity:100_000 in
      ignore (Runtime.run (runtime_config ~envname ~seed ~trace:tr (Registry.find_exn pname)));
      let events = Trace.events tr in
      let total = List.length events in
      List.iter
        (fun cut ->
          let prefix = List.filteri (fun i _ -> i < cut) events in
          let rest = List.filteri (fun i _ -> i >= cut) events in
          match Online.trace_process_count events with
          | Error e -> Alcotest.fail e
          | Ok n ->
              let live = Online.create ~n () in
              List.iter (Online.observe live) prefix;
              let restored = Online.restore (Online.export live) in
              check "summary equal at the cut" true (Online.summary restored = Online.summary live);
              check "violations equal at the cut" true
                (Online.violations restored = Online.violations live);
              check "orphans equal at the cut" true
                (Online.orphan_messages restored = Online.orphan_messages live);
              List.iter (Online.observe live) rest;
              List.iter (Online.observe restored) rest;
              check "summary equal at the end" true
                (Online.summary restored = Online.summary live);
              check "export idempotent" true
                (Online.export restored = Online.export live))
        [ 0; 1; total / 3; total / 2; total - 1; total ])
    [ ("bhmr", "random", 5); ("none", "group", 2) ]

let test_trackable_matches_tdv () =
  let tr = Trace.ring ~capacity:100_000 in
  let r = Runtime.run (runtime_config ~envname:"group" ~seed:3 ~trace:tr (Registry.find_exn "bhmr")) in
  match Online.check_trace (Trace.events tr) with
  | Error e -> Alcotest.fail e
  | Ok t ->
      let pat = r.Runtime.pattern in
      let tdv = Tdv.compute pat in
      let cks = ref [] in
      P.iter_ckpts pat (fun c -> cks := (c.T.owner, c.T.index) :: !cks);
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              if Online.trackable t a b <> Tdv.trackable tdv a b then
                Alcotest.failf "trackable disagrees on C%s ~> C%s"
                  (Format.asprintf "%a" T.pp_ckpt_id a)
                  (Format.asprintf "%a" T.pp_ckpt_id b))
            !cks)
        !cks

(* The engine against the offline replay on one pattern: [trackable]
   for every checkpoint pair (against [Tdv.compute]), and [violations]
   and [checked] (against [Checker.run]).  Send payloads and checkpoint
   TDVs share one frozen vector per process; a copy that a delivery left
   stale shows here as a trackable pair the replay does not track. *)
let agrees_offline eng pat =
  let tdv = Tdv.compute pat and off = Checker.run pat in
  let cks = P.fold_ckpts pat ~init:[] ~f:(fun acc c -> (c.T.owner, c.T.index) :: acc) in
  let pp = Format.asprintf "%a" T.pp_ckpt_id in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if Online.trackable eng a b <> Tdv.trackable tdv a b then
            QCheck.Test.fail_reportf "trackable disagrees on %s ~> %s" (pp a) (pp b))
        cks)
    cks;
  let violations =
    Online.violations eng
    |> List.filteri (fun i _ -> i < Checker.max_reported)
    |> List.map (fun (v : Online.violation) ->
           {
             Checker.from_ckpt = v.Online.from_ckpt;
             to_ckpt = v.Online.to_ckpt;
             tracked = Some v.Online.tracked;
           })
  in
  if violations <> off.Checker.violations then QCheck.Test.fail_report "violations differ";
  if Online.checked eng <> off.Checker.checked then
    QCheck.Test.fail_reportf "checked %d <> offline %d" (Online.checked eng) off.Checker.checked

(* Stream [events] through a session and run [agrees] on the engine and
   the pattern at every quiescent prefix (one [Session.pattern] can
   build: nothing in flight, no rollback cascade half observed); the
   number of prefixes compared. *)
let on_every_quiescent_prefix ?(agrees = agrees_offline) events =
  match Online.trace_process_count events with
  | Error e -> QCheck.Test.fail_report e
  | Ok n ->
      let module Session = Rdt_check.Session in
      let s = Session.ephemeral ~n () in
      let compared = ref 0 in
      let compare_now () =
        match Session.pattern s with
        | Ok pat ->
            agrees (Session.engine s) pat;
            incr compared
        | Error _ -> ()
      in
      List.iter
        (fun ev ->
          (match Session.observe s ev with Ok () -> () | Error e -> QCheck.Test.fail_report e);
          compare_now ())
        events;
      (match Session.pattern s with
      | Ok _ -> ()
      | Error e -> QCheck.Test.fail_reportf "the stream's end is not a pattern: %s" e);
      !compared

(* A fuzz scenario, "none" included so that violations occur, or a
   crash run of the runtime; both carry rollbacks.  No ring or stencil:
   some of their crash runs never end (ROADMAP item 1). *)
let shared_vector_trace seed =
  if seed mod 2 = 0 then
    let space =
      {
        Rdt_fuzz.Scenario.default_space with
        protocols = [ "none"; "bhmr"; "fdas" ];
        envs = [ "random"; "group"; "client-server"; "prodcons"; "master-worker" ];
        max_n = 5;
        max_messages = 100;
        crash_prob = 0.7;
      }
    in
    (Rdt_fuzz.Exec.run (Rdt_fuzz.Scenario.generate ~space ~seed ())).Rdt_fuzz.Exec.events
  else
    let tr = Trace.ring ~capacity:50_000 in
    let p = Registry.find_exn (if seed mod 4 = 1 then "none" else "bhmr") in
    let env = Rdt_workloads.Registry.find_exn "random" in
    ignore
      (Runtime.run
         {
           (Runtime.default_config env p) with
           Runtime.n = 4;
           seed;
           max_messages = 100;
           crashes = [ { Runtime.victim = seed mod 4; at = 600; repair_delay = 150 } ];
           trace = tr;
         });
    Trace.events tr

let online_shared_vectors_match_replay =
  QCheck.Test.make ~name:"shared vectors: trackable, violations, checked = replay at every quiescent prefix"
    ~count:40 QCheck.(make ~print:string_of_int Gen.(0 -- 10_000))
    (fun seed ->
      ignore (on_every_quiescent_prefix (shared_vector_trace seed));
      true)

(* The same streams with the reachability queries: open intervals,
   rolled-back and rebuilt histories, and Z-cycles from protocol none. *)
let online_stream_reachability_equals_rgraph =
  QCheck.Test.make ~name:"online reaches/in_cycle/zcycle = rgraph at every quiescent prefix"
    ~count:40 QCheck.(make ~print:string_of_int Gen.(0 -- 10_000))
    (fun seed ->
      ignore (on_every_quiescent_prefix ~agrees:reach_agrees (shared_vector_trace seed));
      true)

(* P1 sends m0 to P2, is delivered m1 from P0's second interval, and
   sends m2 to P2 in the same interval: m2 must carry P0's entry, which
   m0's payload lacks. *)
let test_send_deliver_send () =
  let events =
    [
      Trace.Send { msg = 0; src = 1; dst = 2; time = 1 };
      Trace.Ckpt { pid = 0; index = 1; kind = T.Basic; time = 2; tdv = None; preds = [] };
      Trace.Send { msg = 1; src = 0; dst = 1; time = 3 };
      Trace.Deliver { msg = 1; src = 0; dst = 1; time = 4 };
      Trace.Send { msg = 2; src = 1; dst = 2; time = 5 };
      Trace.Deliver { msg = 0; src = 1; dst = 2; time = 6 };
      Trace.Deliver { msg = 2; src = 1; dst = 2; time = 7 };
      Trace.Ckpt { pid = 2; index = 1; kind = T.Basic; time = 8; tdv = None; preds = [] };
    ]
  in
  (* quiescent after m2's delivery and after C(2,1) *)
  Alcotest.(check int) "quiescent prefixes compared" 2 (on_every_quiescent_prefix events);
  match Online.check_trace events with
  | Error e -> Alcotest.fail e
  | Ok t -> check "C(0,1) ~> C(2,1) tracked through m2" true (Online.trackable t (0, 1) (2, 1))

let test_runtime_online_field () =
  List.iter
    (fun (pname, seed) ->
      let eng = Online.create ~n:5 () in
      let r =
        Runtime.run
          (runtime_config ~n:5 ~envname:"random" ~seed ~trace:(Online.observer eng)
             (Registry.find_exn pname))
      in
      let s = Online.summary eng in
      let off = Checker.run r.Runtime.pattern in
      check
        (Printf.sprintf "%s seed %d: runtime online verdict = offline" pname seed)
        off.Checker.rdt s.Online.rdt;
      (* only one direction: a final-RDT run may still latch a transient
         prefix violation that a later delivery cured *)
      if not off.Checker.rdt then
        check
          (Printf.sprintf "%s seed %d: violating runs carry a first-violation index" pname seed)
          true
          (s.Online.first_violation <> None))
    [ ("none", 1); ("bhmr", 1) ]

let test_inconsistent_streams_rejected () =
  List.iter
    (fun (label, events) ->
      match Online.check_trace events with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: accepted" label)
    [
      ("unknown delivery", [ Trace.Deliver { msg = 3; src = 0; dst = 1; time = 5 } ]);
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

let () =
  Alcotest.run "rdt_online"
    [
      ( "pattern mode",
        [
          qt online_equals_rgraph_on_patterns;
          qt online_agrees_with_all_checkers;
          qt online_reachability_equals_rgraph;
        ] );
      ( "stream mode",
        [
          Alcotest.test_case "registry x env x seed matrix" `Quick test_stream_matrix;
          Alcotest.test_case "under network faults" `Quick test_stream_under_faults;
          Alcotest.test_case "crash and recovery" `Quick test_stream_crashrun;
        ] );
      ( "per-event",
        [
          Alcotest.test_case "prefix verdicts = offline oracle" `Quick test_prefix_oracle;
          Alcotest.test_case "step allocation per event, pinned" `Quick test_step_allocation;
          Alcotest.test_case "per-event cost does not grow with history" `Quick
            test_cost_does_not_grow;
          Alcotest.test_case "rollback retraction and latch" `Quick test_rollback_retraction;
          Alcotest.test_case "orphaned stream end names every orphan" `Quick
            test_orphan_end_reports_all;
          Alcotest.test_case "export/restore roundtrip" `Quick test_export_restore_roundtrip;
          Alcotest.test_case "trackable = TDV replay" `Quick test_trackable_matches_tdv;
          qt online_shared_vectors_match_replay;
          qt online_stream_reachability_equals_rgraph;
          Alcotest.test_case "send, deliver, send in one interval" `Quick test_send_deliver_send;
          Alcotest.test_case "runtime online observer" `Quick test_runtime_online_field;
          Alcotest.test_case "impossible streams rejected" `Quick test_inconsistent_streams_rejected;
        ] );
    ]
