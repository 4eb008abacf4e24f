(* Determinism of the parallel experiment grid.

   Headline: sharding a grid over the Pool changes nothing but the
   wall-clock — for every registry protocol x environment the per-run
   metrics are identical under jobs 1/2/4/8, and whole experiment tables
   (including the TAB-FAULTS fault grid) and figures render
   byte-identical rows for every worker count.  Plus unit tests for
   Pool.map itself (order, exception propagation, argument validation)
   and for the suite registry behind [rdtsim table]. *)

module Pool = Rdt_harness.Pool
module Experiments = Rdt_harness.Experiments
module Table = Rdt_harness.Table
module Bench_report = Rdt_harness.Bench_report
module Stats = Rdt_harness.Stats
module Runtime = Rdt_core.Runtime
module Registry = Rdt_core.Registry
module Protocol = Rdt_core.Protocol

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Pool.map                                                            *)
(* ------------------------------------------------------------------ *)

let test_map_is_list_map () =
  let xs = List.init 100 (fun i -> i) in
  let f x = (x * x) + 1 in
  let expect = List.map f xs in
  List.iter
    (fun jobs -> Alcotest.(check (list int)) (Printf.sprintf "jobs=%d" jobs) expect (Pool.map ~jobs f xs))
    [ 1; 2; 8 ];
  Alcotest.(check (list int)) "empty" [] (Pool.map ~jobs:4 f []);
  Alcotest.(check (list int)) "singleton" [ f 7 ] (Pool.map ~jobs:4 f [ 7 ])

let test_map_timed_results () =
  let xs = [ 3; 1; 4; 1; 5 ] in
  let timed = Pool.map_timed ~jobs:2 (fun x -> x * 10) xs in
  Alcotest.(check (list int)) "values" (List.map (fun x -> x * 10) xs) (List.map fst timed);
  check "timings are non-negative" true (List.for_all (fun (_, dt) -> dt >= 0.0) timed)

let test_map_invalid_jobs () =
  check "jobs=0 rejected" true
    (try
       ignore (Pool.map ~jobs:0 Fun.id [ 1 ]);
       false
     with Invalid_argument _ -> true)

exception Boom of int

let test_map_exception_propagation () =
  (* the smallest failing index wins, independent of scheduling *)
  List.iter
    (fun jobs ->
      match Pool.map ~jobs (fun x -> if x mod 3 = 0 then raise (Boom x) else x) (List.init 20 (fun i -> i + 1)) with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom x -> Alcotest.(check int) (Printf.sprintf "jobs=%d" jobs) 3 x)
    [ 1; 2; 8 ]

(* ------------------------------------------------------------------ *)
(* Per-cell metrics: registry x environments                           *)
(* ------------------------------------------------------------------ *)

let environments = [ "random"; "group"; "client-server"; "prodcons"; "master-worker"; "stencil" ]

let run_cell (pname, ename) =
  let protocol = Registry.find_exn pname in
  let env = Rdt_workloads.Registry.find_exn ename in
  let r =
    Runtime.run
      {
        (Runtime.default_config env protocol) with
        Runtime.n = 5;
        seed = Rdt_dist.Rng.derive_seed 1 (pname ^ "/" ^ ename);
        max_messages = 150;
      }
  in
  (r.Runtime.metrics, r.Runtime.predicate_counts)

let test_registry_grid_metrics () =
  (* every protocol in the registry, every environment: the pool must
     reproduce the sequential per-cell metrics exactly *)
  let cells =
    List.concat_map
      (fun p -> List.map (fun e -> (Protocol.name p, e)) environments)
      Registry.all
  in
  let sequential = List.map run_cell cells in
  List.iter
    (fun jobs ->
      let parallel = Pool.map ~jobs run_cell cells in
      List.iteri
        (fun i ((pname, ename), (seq, par)) ->
          ignore i;
          check (Printf.sprintf "jobs=%d %s/%s" jobs pname ename) true (seq = par))
        (List.combine cells (List.combine sequential parallel)))
    [ 2; 8 ]

(* ------------------------------------------------------------------ *)
(* Whole tables: byte-identical rows for every worker count            *)
(* ------------------------------------------------------------------ *)

let table_repr t = (Table.header t, Table.rows t)

(* every point of every series: x, mean and 95% CI half-width *)
let figure_repr (f : Experiments.figure) =
  List.map
    (fun (s : Experiments.series) ->
      ( s.label,
        List.map
          (fun (p : Experiments.point) ->
            (p.x, Stats.mean p.stats, Stats.ci95_half_width p.stats))
          s.points ))
    f.series

(* one suite entry's output under [jobs] workers *)
let run_entry ?report id ~jobs ~seeds =
  (Experiments.find id).run { Experiments.jobs = Some jobs; report; seeds; quick = false }

let output_repr = function
  | Experiments.Table t -> `Table (table_repr t)
  | Experiments.Figure f -> `Figure (figure_repr f)
  | Experiments.Claim c -> `Claim c

let jobs_independent id ~seeds () =
  let reference = output_repr (run_entry id ~jobs:1 ~seeds) in
  let again = output_repr (run_entry id ~jobs:4 ~seeds) in
  check (id ^ " identical under jobs=4") true (reference = again)

let test_table_protocols_jobs_independent = jobs_independent "TAB-PROTOCOLS" ~seeds:[ 1 ]

(* the TAB-FAULTS grid runs paired faulty/reliable cells through the
   transport; still bit-identical when sharded *)
let test_table_faults_jobs_independent = jobs_independent "TAB-FAULTS" ~seeds:[ 1 ]

(* two seeds, so every CI is a real spread and not the one-sample 0 *)
let test_fig_group_jobs_independent = jobs_independent "FIG-8" ~seeds:[ 1; 2 ]

let test_fig_lost_work_jobs_independent = jobs_independent "FIG-LOST-WORK" ~seeds:[ 1; 2 ]

let test_claim_worker_count_independent () =
  (* same measured reductions for 1, 2 and 8 workers *)
  let claim jobs = output_repr (run_entry "CLAIM-10PCT" ~jobs ~seeds:[ 1; 2 ]) in
  let reference = claim 1 in
  List.iter
    (fun jobs ->
      let again = claim jobs in
      check (Printf.sprintf "CLAIM-10PCT identical under jobs=%d" jobs) true (reference = again))
    [ 2; 8 ]

let test_report_cell_sequence () =
  (* the report records the same cells in the same (grid) order whether
     or not the grid was sharded; only the timings differ *)
  let coords r =
    List.map
      (fun (c : Bench_report.cell) -> (c.table, c.protocol, c.env, c.seed))
      (Bench_report.cells r)
  in
  let r1 = Bench_report.create ~jobs:1 in
  ignore (run_entry ~report:r1 "TAB-FAULTS" ~jobs:1 ~seeds:[ 1 ]);
  let r4 = Bench_report.create ~jobs:4 in
  ignore (run_entry ~report:r4 "TAB-FAULTS" ~jobs:4 ~seeds:[ 1 ]);
  check "cell sequences match" true (coords r1 = coords r4);
  check "cells were recorded" true (coords r1 <> [])

(* ------------------------------------------------------------------ *)
(* The suite registry                                                  *)
(* ------------------------------------------------------------------ *)

let test_table_names_order () =
  (* the [rdtsim table] names in the order [Experiments.run] prints the
     entries, figures left out *)
  Alcotest.(check (list string))
    "table_names"
    [
      "protocols"; "overhead"; "claim"; "mingcp"; "ablation"; "recovery"; "coordinated";
      "breakeven"; "goodput"; "faults"; "online"; "durable"; "fuzz"; "scale"; "serve";
    ]
    (List.filter_map (fun e -> e.Experiments.name) Experiments.entries)

let test_run_tables_unknown_name () =
  (* the lookup rejects it before any table runs, even behind a valid
     name *)
  check "unknown name rejected" true
    (try
       Experiments.run ~seeds:[ 1 ] (List.map Experiments.find [ "overhead"; "fig-random" ]);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "rdt_pool"
    [
      ( "pool",
        [
          Alcotest.test_case "map = List.map for every jobs" `Quick test_map_is_list_map;
          Alcotest.test_case "map_timed values and timings" `Quick test_map_timed_results;
          Alcotest.test_case "invalid jobs" `Quick test_map_invalid_jobs;
          Alcotest.test_case "exception of smallest index" `Quick test_map_exception_propagation;
        ] );
      ( "grid determinism",
        [
          Alcotest.test_case "registry x environments metrics" `Slow test_registry_grid_metrics;
          Alcotest.test_case "TAB-PROTOCOLS byte-identical" `Slow test_table_protocols_jobs_independent;
          Alcotest.test_case "TAB-FAULTS byte-identical" `Slow test_table_faults_jobs_independent;
          Alcotest.test_case "FIG-8 byte-identical" `Slow test_fig_group_jobs_independent;
          Alcotest.test_case "FIG-LOST-WORK byte-identical" `Slow
            test_fig_lost_work_jobs_independent;
          Alcotest.test_case "worker-count independence (1,2,8)" `Slow test_claim_worker_count_independent;
          Alcotest.test_case "report cell sequence" `Quick test_report_cell_sequence;
        ] );
      ( "suite registry",
        [
          Alcotest.test_case "table_names in run_all order" `Quick test_table_names_order;
          Alcotest.test_case "run_tables rejects unknown names" `Quick
            test_run_tables_unknown_name;
        ] );
    ]
