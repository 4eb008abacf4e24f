(* Tests for rdt_harness: statistics, tables, experiment plumbing, and a
   smoke-level check that the figure reproductions have the paper's
   shape. *)

module Stats = Rdt_harness.Stats
module Table = Rdt_harness.Table
module Experiment = Rdt_harness.Experiment
module Experiments = Rdt_harness.Experiments
module Runtime = Rdt_core.Runtime

let check = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))
let qt = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

(* the 95% half-width from a sample variance: 1.96 * sqrt (var / n) *)
let ci95 ~var ~n = 1.96 *. sqrt (var /. n)

let test_stats_empty () =
  let s = Stats.create () in
  checkf "mean" 0.0 (Stats.mean s);
  checkf "ci" 0.0 (Stats.ci95_half_width s)

let test_stats_known_values () =
  let s = Stats.of_list [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ] in
  checkf "mean" 5.0 (Stats.mean s);
  Alcotest.(check (float 1e-6)) "ci from the unbiased variance"
    (ci95 ~var:(32.0 /. 7.0) ~n:8.0)
    (Stats.ci95_half_width s)

let test_stats_single () =
  let s = Stats.of_list [ 3.5 ] in
  checkf "mean" 3.5 (Stats.mean s);
  checkf "ci" 0.0 (Stats.ci95_half_width s)

let stats_matches_direct =
  QCheck.Test.make ~name:"welford matches direct mean/variance" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 2 40) (float_range (-100.) 100.))
    (fun xs ->
      let s = Stats.of_list xs in
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0.0 xs /. n in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs /. (n -. 1.0)
      in
      abs_float (Stats.mean s -. mean) < 1e-6
      && abs_float (Stats.ci95_half_width s -. ci95 ~var ~n) < 1e-4)

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

let test_table_render () =
  let t = Table.create ~header:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "23456" ];
  let out = Table.render t in
  let lines = String.split_on_char '\n' (String.trim out) in
  Alcotest.(check int) "4 lines (header, rule, row, row)" 4 (List.length lines);
  (* all lines same width *)
  match lines with
  | first :: rest ->
      List.iter
        (fun l -> Alcotest.(check int) "aligned" (String.length first) (String.length l))
        rest
  | [] -> Alcotest.fail "no output"

let test_table_width_mismatch () =
  let t = Table.create ~header:[ "a"; "b" ] in
  Alcotest.check_raises "bad row" (Invalid_argument "Table.add_row: row width mismatch")
    (fun () -> Table.add_row t [ "only one" ])

let test_table_cells () =
  Alcotest.(check string) "float" "1.250" (Table.cell_f 1.25);
  Alcotest.(check string) "pct" "12.5%" (Table.cell_pct 0.125)

(* ------------------------------------------------------------------ *)
(* Experiment plumbing                                                 *)
(* ------------------------------------------------------------------ *)

(* a workload is a Runtime config over a registry environment *)
let workload ?faults ~n ~messages name =
  Runtime.configure ~n ~messages ?faults (Rdt_workloads.Registry.find_exn name)
    (Rdt_core.Registry.find_exn "fdas")

let test_workload_lookup () =
  let w = workload ~n:4 ~messages:200 "random" in
  Alcotest.(check int) "n" 4 w.Runtime.n;
  Alcotest.check_raises "unknown env"
    (Invalid_argument
       "unknown environment \"nope\" (valid: random, group, client-server, ring, prodcons, \
        master-worker, stencil)") (fun () -> ignore (workload ~n:4 ~messages:200 "nope"))

let test_faults_imply_transport () =
  let faults = { Rdt_dist.Faults.none with drop = 0.1 } in
  check "faults select the default transport" true
    ((workload ~n:4 ~messages:200 ~faults "random").Runtime.transport
    = Some Rdt_dist.Transport.default_params);
  check "no faults, no transport" true
    ((workload ~n:4 ~messages:200 "random").Runtime.transport = None)

let test_run_deterministic () =
  let w = workload ~n:4 ~messages:200 "random" in
  let protocol = Rdt_core.Registry.find_exn "bhmr" in
  let a = Runtime.run { w with protocol; seed = 3 }
  and b = Runtime.run { w with protocol; seed = 3 } in
  Alcotest.(check int) "same forced" a.metrics.Rdt_core.Metrics.forced
    b.metrics.Rdt_core.Metrics.forced;
  check "rdt verified" true (Rdt_core.Checker.run a.Runtime.pattern).Rdt_core.Checker.rdt

let test_ratio_pairing () =
  let w = workload ~n:4 ~messages:300 "client-server" in
  let bhmr = Rdt_core.Registry.find_exn "bhmr" in
  let fdas = Rdt_core.Registry.find_exn "fdas" in
  (* the paired ratio: both runs on the same seed *)
  let ratio p ~baseline =
    Stats.of_list
      (List.filter_map
         (fun seed ->
           Experiment.forced_ratio
             (Runtime.run { w with protocol = p; seed })
             (Runtime.run { w with protocol = baseline; seed }))
         [ 1; 2 ])
  in
  (* a protocol against itself is exactly 1 *)
  checkf "self ratio" 1.0 (Stats.mean (ratio fdas ~baseline:fdas));
  check "bhmr beats fdas on client-server" true (Stats.mean (ratio bhmr ~baseline:fdas) < 0.9)

(* ------------------------------------------------------------------ *)
(* Experiment shapes (quick seeds)                                     *)
(* ------------------------------------------------------------------ *)

let seeds = [ 1; 2 ]

let run_entry id =
  (Experiments.find id).run { Experiments.jobs = None; report = None; seeds; quick = false }

let figure id =
  match run_entry id with Experiments.Figure f -> f | _ -> Alcotest.failf "%s is not a figure" id

let series_means fig label =
  match List.find_opt (fun s -> s.Experiments.label = label) fig.Experiments.series with
  | None -> Alcotest.failf "series %s missing" label
  | Some s -> List.map (fun p -> Stats.mean p.Experiments.stats) s.Experiments.points

let test_fig_client_server_shape () =
  let fig = figure "FIG-9" in
  let bhmr = series_means fig "bhmr" in
  let v1 = series_means fig "bhmr-v1" in
  (* strong reduction everywhere, and bhmr at least as good as v1 *)
  List.iter (fun r -> check "bhmr << fdas" true (r < 0.8)) bhmr;
  List.iter2 (fun a b -> check "bhmr <= v1" true (a <= b +. 0.02)) bhmr v1

let test_fig_random_shape () =
  let fig = figure "FIG-RANDOM" in
  List.iter
    (fun label ->
      List.iter
        (fun r -> check (label ^ " never worse than fdas") true (r <= 1.0 +. 1e-9))
        (series_means fig label))
    [ "bhmr"; "bhmr-v1"; "bhmr-v2" ]

let test_claim_ten_percent_structured_envs () =
  let reductions =
    match run_entry "CLAIM-10PCT" with
    | Experiments.Claim r -> r
    | _ -> Alcotest.fail "CLAIM-10PCT is not a claim"
  in
  List.iter
    (fun (label, reduction) ->
      check (label ^ " nonnegative") true (reduction >= -0.01);
      (* the structured environments comfortably exceed the paper's 10% *)
      if label = "client-server (n=8)" || label = "master-worker (n=8)" then
        check (label ^ " >= 10%") true (reduction >= 0.10))
    reductions

let test_overhead_table_monotone () =
  let t =
    match run_entry "TAB-OVERHEAD" with
    | Experiments.Table t -> t
    | _ -> Alcotest.fail "TAB-OVERHEAD is not a table"
  in
  let rendered = Table.render t in
  check "has bhmr row" true
    (String.split_on_char '\n' rendered
    |> List.exists (fun l -> String.length l >= 4 && String.sub l 0 4 = "bhmr"))

let () =
  Alcotest.run "rdt_harness"
    [
      ( "stats",
        [
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "known values" `Quick test_stats_known_values;
          Alcotest.test_case "single" `Quick test_stats_single;
          qt stats_matches_direct;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "width mismatch" `Quick test_table_width_mismatch;
          Alcotest.test_case "cells" `Quick test_table_cells;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "workload lookup" `Quick test_workload_lookup;
          Alcotest.test_case "faults imply the default transport" `Quick
            test_faults_imply_transport;
          Alcotest.test_case "run deterministic" `Quick test_run_deterministic;
          Alcotest.test_case "ratio pairing" `Quick test_ratio_pairing;
        ] );
      ( "figures",
        [
          Alcotest.test_case "client-server shape" `Slow test_fig_client_server_shape;
          Alcotest.test_case "random shape" `Slow test_fig_random_shape;
          Alcotest.test_case "10% claim (structured envs)" `Slow
            test_claim_ten_percent_structured_envs;
          Alcotest.test_case "overhead table" `Quick test_overhead_table_monotone;
        ] );
    ]
