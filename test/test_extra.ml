(* Second-pass tests: edge cases, error paths, and pretty-printers across
   all libraries, plus runtime-level property tests that drive random
   configurations end to end. *)

module Rng = Rdt_dist.Rng
module Vclock = Rdt_dist.Vclock
module Heap = Rdt_dist.Heap
module Event_queue = Rdt_dist.Event_queue
module P = Rdt_pattern.Pattern
module T = Rdt_pattern.Types
module Chains = Rdt_pattern.Chains
module Rgraph = Rdt_pattern.Rgraph
module Tdv = Rdt_pattern.Tdv
module Render = Rdt_pattern.Render
module Consistency = Rdt_pattern.Consistency
module Control = Rdt_core.Control
module Runtime = Rdt_core.Runtime
module Checker = Rdt_core.Checker
module Metrics = Rdt_core.Metrics
module Registry = Rdt_core.Registry

let check = Alcotest.(check bool)
let qt = QCheck_alcotest.to_alcotest

let fmt_str f x = Format.asprintf "%a" f x

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

(* ------------------------------------------------------------------ *)
(* rdt_dist edges                                                      *)
(* ------------------------------------------------------------------ *)

let test_vclock_edges () =
  let v = Vclock.create ~n:2 in
  Vclock.set v 0 1;
  Vclock.set v 1 2;
  let out = Vclock.to_array v in
  out.(1) <- 99;
  Alcotest.(check int) "to_array copies" 2 (Vclock.get v 1);
  Alcotest.check_raises "negative entry" (Invalid_argument "Vclock.set: negative entry")
    (fun () -> Vclock.set v 0 (-1));
  Alcotest.check_raises "merge size mismatch" (Invalid_argument "Vclock.merge: size mismatch")
    (fun () -> Vclock.merge v (Vclock.create ~n:3));
  Alcotest.check_raises "create 0" (Invalid_argument "Vclock.create: n must be positive")
    (fun () -> ignore (Vclock.create ~n:0))

let test_rng_error_paths () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "int_in reversed" (Invalid_argument "Rng.int_in: empty range")
    (fun () -> ignore (Rng.int_in rng 3 2));
  Alcotest.check_raises "exponential mean 0"
    (Invalid_argument "Rng.exponential_int: mean must be positive") (fun () ->
      ignore (Rng.exponential_int rng ~mean:0));
  Alcotest.check_raises "pick empty" (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick rng [||]))

let test_heap_custom_order () =
  let h = Heap.create ~cmp:(fun a b -> compare b a) in
  List.iter (Heap.add h) [ 5; 1; 9; 3 ];
  Alcotest.(check (option int)) "max first" (Some 9) (Heap.pop h);
  Alcotest.(check (option int)) "then the next largest" (Some 5) (Heap.pop h)

let test_queue_interleaved () =
  let q = Event_queue.create () in
  Event_queue.schedule q ~time:10 "a";
  Alcotest.(check (option (pair int string))) "pop a" (Some (10, "a")) (Event_queue.pop q);
  Event_queue.schedule q ~time:5 "late-but-early";
  Event_queue.schedule q ~time:20 "b";
  (* times in the past of previously popped events are still served in
     order: the queue imposes no monotonicity *)
  Alcotest.(check (option (pair int string))) "pop early" (Some (5, "late-but-early"))
    (Event_queue.pop q);
  check "not empty" true (not (Event_queue.is_empty q))

(* ------------------------------------------------------------------ *)
(* rdt_pattern edges                                                   *)
(* ------------------------------------------------------------------ *)

let test_pattern_accessor_errors () =
  let fx = Rdt_test_helpers.Fixtures.figure1 () in
  let pat = fx.pattern in
  Alcotest.check_raises "missing checkpoint"
    (Invalid_argument "Pattern.ckpt: C(0,99) does not exist") (fun () ->
      ignore (P.ckpt pat (0, 99)));
  check "has_ckpt negative" false (P.has_ckpt pat (-1, 0))

let test_fig1_recvs_and_sends () =
  let fx = Rdt_test_helpers.Fixtures.figure1 () in
  let pat = fx.pattern in
  Alcotest.(check (array int)) "P_i sends m1, m5" [| fx.m1; fx.m5 |] (P.sends_of pat fx.i);
  (* sends_between: P_j's sends strictly inside I_{j,2} *)
  let cks = P.checkpoints pat fx.j in
  let lo = cks.(1).T.pos and hi = cks.(2).T.pos in
  Alcotest.(check (list int)) "I_{j,2} sends m4, m6" [ fx.m4; fx.m6 ]
    (P.sends_between pat fx.j ~lo ~hi)

let test_rgraph_edge_count_fig1 () =
  let fx = Rdt_test_helpers.Fixtures.figure1 () in
  let g = Rgraph.build fx.pattern in
  (* 3 program edges per process + 6 distinct message edges (m4 and m6
     both give C(1,2) -> C(2,2)... m3/m5 in paper naming) *)
  Alcotest.(check int) "edge count" (9 + 6) (Rgraph.edge_count g);
  Alcotest.(check int) "num nodes" 12 (Rgraph.num_nodes g)

let test_chains_from_interval_zero () =
  let fx = Rdt_test_helpers.Fixtures.figure1 () in
  let r = Chains.causal_from_interval fx.pattern (fx.i, 0) in
  check "I(i,0) reaches nothing" true (Array.for_all (( = ) max_int) r.Chains.earliest);
  Alcotest.check_raises "missing source" (Invalid_argument "Chains: C(9,0) does not exist")
    (fun () -> ignore (Chains.causal_from_interval fx.pattern (9, 0)))

let test_consistency_arg_errors () =
  let fx = Rdt_test_helpers.Fixtures.figure1 () in
  Alcotest.check_raises "two pins on one process"
    (Invalid_argument "Consistency: two checkpoints of the same process in the set") (fun () ->
      ignore (Consistency.min_consistent_containing fx.pattern [ (0, 1); (0, 2) ]));
  Alcotest.check_raises "bad vector length"
    (Invalid_argument "Consistency: vector length mismatch") (fun () ->
      ignore (Consistency.consistent_global fx.pattern [| 0 |]))

let test_render_alignment () =
  let fx = Rdt_test_helpers.Fixtures.figure1 () in
  match Render.ascii fx.pattern with
  | Error e -> Alcotest.fail e
  | Ok s ->
      let lines = String.split_on_char '\n' s in
      let grid = List.filteri (fun k _ -> k < 3) lines in
      (match grid with
      | first :: rest ->
          List.iter
            (fun l -> Alcotest.(check int) "grid rows aligned" (String.length first) (String.length l))
            rest
      | [] -> Alcotest.fail "no grid")

let test_pp_functions () =
  let fx = Rdt_test_helpers.Fixtures.figure1 () in
  check "ckpt id" true (contains (fmt_str T.pp_ckpt_id (1, 2)) "C(1,2)");
  check "kind" true (T.ckpt_kind_to_string T.Forced = "forced");
  check "summary" true (contains (fmt_str P.pp_summary fx.pattern) "3 processes")

(* ------------------------------------------------------------------ *)
(* rdt_core edges                                                      *)
(* ------------------------------------------------------------------ *)

let env name = Rdt_workloads.Registry.find_exn name

let test_checker_report_output () =
  let none = Registry.find_exn "none" in
  let r =
    Runtime.run
      {
        (Runtime.default_config (env "client-server") none) with
        Runtime.n = 5;
        seed = 4;
        max_messages = 500;
      }
  in
  let rep = Checker.run r.pattern in
  check "violations reported" true (List.length rep.Checker.violations > 0);
  check "capped" true (List.length rep.Checker.violations <= Checker.max_reported);
  check "pp mentions VIOLATED" true (contains (fmt_str Checker.pp_report rep) "VIOLATED");
  let ok_rep =
    Checker.run
      (Runtime.run
         {
           (Runtime.default_config (env "random") (Registry.find_exn "cbr")) with
           Runtime.n = 3;
           seed = 4;
           max_messages = 100;
         })
        .pattern
  in
  check "pp mentions holds" true (contains (fmt_str Checker.pp_report ok_rep) "RDT holds")

let test_metrics_helpers () =
  let bhmr = Registry.find_exn "bhmr" in
  let r =
    Runtime.run
      {
        (Runtime.default_config (env "random") bhmr) with
        Runtime.n = 4;
        seed = 2;
        max_messages = 200;
      }
  in
  let m = r.metrics in
  check "pp" true (contains (fmt_str Metrics.pp m) "bhmr/random");
  let zero_basic = { m with Metrics.basic = 0 } in
  check "forced_per_basic guards zero" true (Metrics.forced_per_basic zero_basic = 0.0)

let test_runtime_no_basic () =
  let bhmr = Registry.find_exn "bhmr" in
  let r =
    Runtime.run
      {
        (Runtime.default_config (env "random") bhmr) with
        Runtime.n = 4;
        seed = 2;
        max_messages = 200;
        basic_period = (0, 0);
      }
  in
  Alcotest.(check int) "no basic checkpoints" 0 r.metrics.Metrics.basic;
  check "still RDT" true (Checker.run r.pattern).Checker.rdt

let test_runtime_max_time () =
  let bhmr = Registry.find_exn "bhmr" in
  let r =
    Runtime.run
      {
        (Runtime.default_config (env "random") bhmr) with
        Runtime.n = 4;
        seed = 2;
        max_messages = 100_000;
        max_time = 2_000;
      }
  in
  check "cut short by time" true (r.metrics.Metrics.messages < 100_000);
  check "pattern valid" true (Result.is_ok (P.validate r.pattern))

let test_runtime_env_checkpoint_action () =
  (* an environment that requests a basic checkpoint after every send *)
  let module E = struct
    type t = { n : int; rng : Rng.t }

    let name = "ckpt-heavy"
    let create ~n ~rng = { n; rng }
    let initial_tick_delay t ~pid:_ = 1 + Rng.int t.rng 10

    let on_tick t ~pid =
      let dst = (pid + 1) mod t.n in
      {
        Rdt_dist.Env.actions = [ Rdt_dist.Env.Send dst; Rdt_dist.Env.Checkpoint ];
        next_tick_in = Some (1 + Rng.int t.rng 30);
      }

    let on_deliver = Rdt_dist.Env.no_reaction
  end in
  let bhmr = Registry.find_exn "bhmr" in
  let r =
    Runtime.run
      {
        (Runtime.default_config (module E : Rdt_dist.Env.S) bhmr) with
        Runtime.n = 3;
        seed = 5;
        max_messages = 150;
        basic_period = (0, 0);
      }
  in
  check "env-driven checkpoints taken" true (r.metrics.Metrics.basic > 0);
  check "rdt" true (Checker.run r.pattern).Checker.rdt

let runtime_rdt_property =
  (* random (environment, protocol, seed, n) -> RDT holds *)
  QCheck.Test.make ~name:"random runtime configurations satisfy RDT" ~count:40
    QCheck.(quad (int_bound 6) (int_bound 6) small_nat (2 -- 5))
    (fun (ei, pi_, seed, n) ->
      let envs = Rdt_workloads.Registry.all in
      let _, _, mk = List.nth envs (ei mod List.length envs) in
      let protos = Registry.rdt_protocols in
      let protocol = List.nth protos (pi_ mod List.length protos) in
      let r =
        Runtime.run
          {
            (Runtime.default_config (mk ()) protocol) with
            Runtime.n;
            seed = seed + 1;
            max_messages = 120;
          }
      in
      (Checker.run r.pattern).Checker.rdt)

let runtime_bcs_no_useless_property =
  QCheck.Test.make ~name:"random bcs runs have no useless checkpoints" ~count:25
    QCheck.(pair (int_bound 6) small_nat)
    (fun (ei, seed) ->
      let envs = Rdt_workloads.Registry.all in
      let _, _, mk = List.nth envs (ei mod List.length envs) in
      let r =
        Runtime.run
          {
            (Runtime.default_config (mk ()) (Registry.find_exn "bcs")) with
            Runtime.n = 4;
            seed = seed + 1;
            max_messages = 120;
          }
      in
      let ok = ref true in
      P.iter_ckpts r.pattern (fun c ->
          if Consistency.useless r.pattern (c.T.owner, c.T.index) then ok := false);
      !ok)

(* ------------------------------------------------------------------ *)
(* rdt_recovery edges                                                  *)
(* ------------------------------------------------------------------ *)

let test_replay_cost_no_crash () =
  let bhmr = Registry.find_exn "bhmr" in
  let r =
    Runtime.run
      {
        (Runtime.default_config (env "random") bhmr) with
        Runtime.n = 4;
        seed = 9;
        max_messages = 200;
      }
  in
  let cost = Rdt_recovery.Message_log.replay_cost r.pattern ~crash:[] in
  Alcotest.(check int) "nothing replayed" 0 cost.Rdt_recovery.Message_log.replayed_messages;
  Alcotest.(check int) "nothing redone" 0 cost.Rdt_recovery.Message_log.reexecuted_events

let test_bounded_line_validation () =
  let fx = Rdt_test_helpers.Fixtures.figure1 () in
  Alcotest.check_raises "bounds length"
    (Invalid_argument "Recovery_line: bounds length mismatch") (fun () ->
      ignore (Rdt_recovery.Recovery_line.max_consistent_bounded fx.pattern [| 0 |]))

let test_breakpoint_recomputed_path () =
  (* hand-built patterns record no TDV, so the breakpoint must be
     recomputed by fixpoint and flagged accordingly *)
  let pat = Rdt_test_helpers.Fixtures.causal_ping_pong () in
  match Rdt_recovery.Breakpoint.compute pat (0, 2) with
  | None -> Alcotest.fail "expected a breakpoint"
  | Some bp ->
      check "recomputed" false bp.Rdt_recovery.Breakpoint.on_the_fly;
      check "pp" true (contains (fmt_str Rdt_recovery.Breakpoint.pp bp) "recomputed")

(* ------------------------------------------------------------------ *)
(* rdt_harness / experiments edges                                     *)
(* ------------------------------------------------------------------ *)

let test_lost_work_shape () =
  let fig = Rdt_harness.Experiments.fig_lost_work ~seeds:[ 1; 2 ] () in
  let means label =
    match List.find_opt (fun s -> s.Rdt_harness.Experiments.label = label) fig.series with
    | None -> Alcotest.failf "series %s missing" label
    | Some s ->
        List.map (fun p -> Rdt_harness.Stats.mean p.Rdt_harness.Experiments.stats) s.points
  in
  let none = means "none" and bhmr = means "bhmr" in
  (* at sparse checkpointing, uncoordinated recovery loses far more *)
  (match (List.rev none, List.rev bhmr) with
  | n :: _, b :: _ -> check "none loses more at sparse periods" true (n > b +. 0.2)
  | _ -> Alcotest.fail "empty series");
  List.iter2 (fun n b -> check "none >= bhmr - eps" true (n >= b -. 0.05)) none bhmr

let test_recovery_table_rows () =
  let t = Rdt_harness.Experiments.table_recovery ~seeds:[ 1 ] () in
  let rendered = Rdt_harness.Table.render t in
  List.iter
    (fun p -> check (p ^ " row present") true (contains rendered p))
    [ "none"; "bcs"; "fdas"; "bhmr" ]

let test_breakeven_table () =
  let t = Rdt_harness.Experiments.table_breakeven ~seeds:[ 1 ] () in
  let rendered = Rdt_harness.Table.render t in
  check "has stencil row" true (contains rendered "stencil");
  check "stencil break-even infinite" true (contains rendered "inf")

let () =
  Alcotest.run "rdt_extra"
    [
      ( "dist-edges",
        [
          Alcotest.test_case "vclock" `Quick test_vclock_edges;
          Alcotest.test_case "rng errors" `Quick test_rng_error_paths;
          Alcotest.test_case "heap custom order" `Quick test_heap_custom_order;
          Alcotest.test_case "queue interleaved" `Quick test_queue_interleaved;
        ] );
      ( "pattern-edges",
        [
          Alcotest.test_case "accessor errors" `Quick test_pattern_accessor_errors;
          Alcotest.test_case "fig1 sends/recvs" `Quick test_fig1_recvs_and_sends;
          Alcotest.test_case "fig1 edge count" `Quick test_rgraph_edge_count_fig1;
          Alcotest.test_case "chains from I(i,0)" `Quick test_chains_from_interval_zero;
          Alcotest.test_case "consistency errors" `Quick test_consistency_arg_errors;
          Alcotest.test_case "render alignment" `Quick test_render_alignment;
          Alcotest.test_case "pretty printers" `Quick test_pp_functions;
        ] );
      ( "core-edges",
        [
          Alcotest.test_case "checker report" `Quick test_checker_report_output;
          Alcotest.test_case "metrics helpers" `Quick test_metrics_helpers;
          Alcotest.test_case "no basic checkpoints" `Quick test_runtime_no_basic;
          Alcotest.test_case "max_time cutoff" `Quick test_runtime_max_time;
          Alcotest.test_case "env checkpoint action" `Quick test_runtime_env_checkpoint_action;
          qt runtime_rdt_property;
          qt runtime_bcs_no_useless_property;
        ] );
      ( "recovery-edges",
        [
          Alcotest.test_case "replay cost no crash" `Quick test_replay_cost_no_crash;
          Alcotest.test_case "bounded line validation" `Quick test_bounded_line_validation;
          Alcotest.test_case "breakpoint recomputed" `Quick test_breakpoint_recomputed_path;
        ] );
      ( "harness-edges",
        [
          Alcotest.test_case "lost-work shape" `Slow test_lost_work_shape;
          Alcotest.test_case "recovery table rows" `Quick test_recovery_table_rows;
          Alcotest.test_case "break-even table" `Quick test_breakeven_table;
        ] );
    ]
