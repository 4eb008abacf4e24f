(* Benchmark and reproduction harness.

   Default: regenerate every table and figure of the paper's evaluation
   (see DESIGN.md's experiment index and EXPERIMENTS.md for the
   paper-vs-measured record), then run the bechamel micro-benchmarks of
   the protocol and analysis hot paths.

     dune exec bench/main.exe                 # everything (10 seeds)
     dune exec bench/main.exe -- --quick      # 3 seeds
     dune exec bench/main.exe -- --micro      # micro-benchmarks only
     dune exec bench/main.exe -- --no-micro   # experiments only
     dune exec bench/main.exe -- --jobs 4     # shard the grid over 4 domains
     dune exec bench/main.exe -- --json out.json   # timing report path

   A machine-readable timing report (grid wall-clock, cells/sec, per-cell
   and per-protocol run cost, micro estimates) is always written; the
   default path is BENCH_results.json in the working directory. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks: one Test.make per hot path                        *)
(* ------------------------------------------------------------------ *)

let run_config protocol n =
  {
    (Rdt_core.Runtime.default_config (Rdt_workloads.Registry.find_exn "random") protocol) with
    Rdt_core.Runtime.n;
    seed = 42;
    max_messages = 300;
  }

let protocol_tests =
  (* whole-run cost per protocol: 300 messages of random traffic *)
  List.concat_map
    (fun n ->
      List.map
        (fun pname ->
          let protocol = Rdt_core.Registry.find_exn pname in
          Test.make
            ~name:(Printf.sprintf "run/%s/n=%d" pname n)
            (Staged.stage (fun () -> ignore (Rdt_core.Runtime.run (run_config protocol n)))))
        [ "none"; "fdas"; "bhmr-v1"; "bhmr" ])
    [ 8; 32 ]

let analysis_tests =
  let protocol = Rdt_core.Registry.find_exn "bhmr" in
  let pattern = (Rdt_core.Runtime.run (run_config protocol 8)).Rdt_core.Runtime.pattern in
  [
    Test.make ~name:"analysis/rgraph-build"
      (Staged.stage (fun () -> ignore (Rdt_pattern.Rgraph.build pattern)));
    Test.make ~name:"analysis/rgraph-reach-all"
      (Staged.stage (fun () ->
           let g = Rdt_pattern.Rgraph.build pattern in
           ignore (Rdt_pattern.Rgraph.reaches g (0, 0) (1, 1))));
    Test.make ~name:"analysis/tdv-replay"
      (Staged.stage (fun () -> ignore (Rdt_pattern.Tdv.compute pattern)));
    Test.make ~name:"analysis/rdt-check"
      (Staged.stage (fun () -> ignore (Rdt_core.Checker.run pattern)));
    Test.make ~name:"analysis/min-gcp-fixpoint"
      (Staged.stage (fun () -> ignore (Rdt_core.Min_gcp.minimum pattern (0, 1))));
    Test.make ~name:"analysis/recovery-line"
      (Staged.stage (fun () ->
           let bounds =
             Array.init (Rdt_pattern.Pattern.n pattern) (fun i ->
                 Rdt_pattern.Pattern.last_index pattern i)
           in
           ignore (Rdt_recovery.Recovery_line.max_consistent_bounded pattern bounds)));
  ]

let run_micro ~report () =
  Format.printf "@.== MICRO: bechamel micro-benchmarks (ns per run) ==@.";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~stabilize:true () in
  let grouped = Test.make_grouped ~name:"rdt" ~fmt:"%s %s" (protocol_tests @ analysis_tests) in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Rdt_dist.Tbl.bindings_sorted ~compare:String.compare results in
  let table = Rdt_harness.Table.create ~header:[ "benchmark"; "time/run"; "r²" ] in
  List.iter
    (fun (name, ols) ->
      let estimate =
        match Analyze.OLS.estimates ols with Some (e :: _) -> e | Some [] | None -> nan
      in
      let r2 = match Analyze.OLS.r_square ols with Some r -> r | None -> nan in
      let pretty =
        if Float.is_nan estimate then "-"
        else if estimate > 1e6 then Printf.sprintf "%.3f ms" (estimate /. 1e6)
        else if estimate > 1e3 then Printf.sprintf "%.3f us" (estimate /. 1e3)
        else Printf.sprintf "%.1f ns" estimate
      in
      if not (Float.is_nan estimate) then
        Rdt_harness.Bench_report.add_micro report ~name ~ns:estimate;
      Rdt_harness.Table.add_row table
        [ name; pretty; (if Float.is_nan r2 then "-" else Printf.sprintf "%.4f" r2) ])
    (List.sort compare rows);
  Rdt_harness.Table.print table

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  let quick = ref false and micro_only = ref false and no_micro = ref false in
  let jobs = ref None and json = ref "BENCH_results.json" in
  (* Arg.parse rejects any other argument with the usage on stderr and
     exit code 2, so a mistyped flag never silently runs the full suite *)
  Arg.parse
    (Arg.align
       [
      ("--quick", Arg.Set quick, " 3 seeds instead of 10");
      ("--micro", Arg.Set micro_only, " micro-benchmarks only");
      ("--no-micro", Arg.Set no_micro, " experiments only");
      ("--jobs", Arg.Int (fun j -> jobs := Some j), "N shard the grid over N domains");
      ("--json", Arg.Set_string json, "FILE timing report path");
    ])
    (fun arg -> raise (Arg.Bad ("unexpected argument " ^ arg)))
    "usage: main.exe [--quick] [--micro | --no-micro] [--jobs N] [--json FILE]";
  let quick = !quick and micro_only = !micro_only and no_micro = !no_micro in
  let jobs =
    match !jobs with
    | None -> Rdt_harness.Pool.default_jobs ()
    | Some j when j >= 1 -> j
    | Some _ -> invalid_arg "bench: --jobs expects a positive integer"
  in
  let json = !json in
  let report = Rdt_harness.Bench_report.create ~jobs in
  let t0 = Rdt_obs.Meter.now () in
  if not micro_only then Rdt_harness.Experiments.run_all ~quick ~jobs ~report ();
  if not no_micro then run_micro ~report ();
  Rdt_harness.Bench_report.set_wall report (Rdt_obs.Meter.now () -. t0);
  Rdt_harness.Bench_report.record_obs report;
  Rdt_harness.Bench_report.write json report;
  Format.printf "@.wrote %s (wall %.2fs, %d cells, jobs=%d)@." json
    (Rdt_harness.Bench_report.wall report)
    (List.length (Rdt_harness.Bench_report.cells report))
    jobs;
  Format.print_flush ()
