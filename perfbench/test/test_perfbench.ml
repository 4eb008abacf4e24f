(* Tests for the benchmark itself.  Run with the benchmark executable
   and the rdtsim binary as arguments (dune passes both). *)

open Perfbench

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end
  else Printf.printf "ok   %s\n%!" name

let floats a b = List.init (b - a + 1) (fun i -> float_of_int (a + i))

(* The tail is the highest percentile with at least ten samples beyond
   it, and pooled repetitions keep the level of one repetition. *)
let test_tail () =
  check "tail undefined at ten samples" (Stats.tail (floats 1 10) = None);
  (match Stats.tail (floats 1 11) with
  | Some t -> check "tail of 11 samples is the lowest, with 10 beyond" (t.value = 1.)
  | None -> check "tail of 11 samples exists" false);
  (match Stats.tail (List.rev (floats 1 1000)) with
  | Some t -> check "tail of 1000 samples is p99, with 10 beyond" (t.value = 990. && t.pct = 99.)
  | None -> check "tail of 1000 samples exists" false);
  let reps = List.init 5 (fun _ -> floats 1 100) in
  (match Stats.pooled_tail ~per_rep:100 (List.concat reps) with
  | Some t -> check "pooled tail keeps one repetition's level" (t.value = 90. && t.pct = 90.)
  | None -> check "pooled tail exists" false);
  let p50, tail =
    Report.latency ~p50:"p50" ~tail:"tail" ~what:"t" (List.map (List.map (fun x -> x /. 1e3)) reps)
  in
  check "latency pair reports the pooled sample count" (p50.samples = 500 && tail.samples = 500);
  let near a b = Float.abs (a -. b) < 1e-9 in
  check "latency pair values" (near p50.value 50.5 && near tail.value 90.);
  check "median of an even count" (Stats.median [ 4.; 1.; 3.; 2. ] = 2.5);
  check "mean" (Stats.mean [ 4.; 1.; 3.; 2. ] = 2.5);
  let m = Report.op_mean "m" ~what:"t" [ [ 0.001; 0.010 ]; [ 0.003; 0.030 ]; [ 0.002; 0.900 ] ] in
  check "op mean: each op's median over reps, then the mean" (near m.value 16. && m.samples = 6);
  check "op mean needs the same ops in every rep"
    (match Report.op_mean "m" ~what:"t" [ [ 0.001 ]; [ 0.001; 0.002 ] ] with
    | _ -> false
    | exception Report.Gate _ -> true);
  check "too few samples per repetition fails the run"
    (match Report.latency ~p50:"a" ~tail:"b" ~what:"t" [ floats 1 10 ] with
    | _ -> false
    | exception Report.Gate _ -> true)

(* Work done in this process is scaled to reference speed repetition by
   repetition; daemon work is not.  Wall figures are printed beside. *)
let test_reference_speed () =
  check "a machine at reference speed scales nothing"
    (Speed.factor ~before:Speed.nominal ~after:Speed.nominal = 1.);
  check "a machine at half speed halves the times"
    (Speed.factor ~before:(2. *. Speed.nominal) ~after:(2. *. Speed.nominal) = 0.5);
  let rep factor =
    { Report.ops = List.init 20 (fun _ -> 0.004); events = 100; wall = 2.; cpu = 1.; rss = 8.; factor }
  in
  let setup = Report.metric "setup_s" "s" 1. in
  let outcome in_process =
    let o =
      Report.outcome ~setup:(setup, setup) ~in_process ~op:"op" ~work:"events"
        ~rss:"rss" (Stats.tally ()) [ rep 0.5; rep 0.5 ]
    in
    ( List.map (fun (m : Report.metric) -> m.name) o.metrics,
      fun name -> (List.find (fun (m : Report.metric) -> m.name = name) (o.metrics @ o.extra)).value )
  in
  let near a b = Float.abs (a -. b) < 1e-9 in
  let names, value = outcome true in
  check "the gated metrics, in BENCHMARK.json's order"
    (names = [ "setup_s"; "events_per_cpu_s"; "op_mean_ms"; "peak_rss_mb" ]);
  check "in-process op mean and p50 at reference speed"
    (near (value "op_mean_ms") 2. && near (value "op_p50_ms") 2.);
  check "in-process op mean and p50 in wall time"
    (near (value "wall.op_mean_ms") 4. && near (value "wall.op_p50_ms") 4.);
  check "in-process events per CPU-second at reference speed" (near (value "events_per_cpu_s") 200.);
  check "events per wall second" (near (value "wall.events_per_s") 50.);
  check "the machine's speed" (near (value "speed.kernel_ms") 20.);
  check "peak RSS is not scaled" (near (value "peak_rss_mb") 8.);
  let _, value = outcome false in
  check "daemon op mean unscaled" (near (value "op_mean_ms") 4.);
  check "daemon events per CPU-second unscaled" (near (value "events_per_cpu_s") 100.)

let test_tally () =
  let t = Stats.tally () in
  List.iter (fun ok -> Stats.attempt t ~ok) [ true; true; false; true ];
  check "tally counts attempts and failures" (t.attempted = 4 && t.failed = 1);
  check "failed_ratio" (Stats.failed_ratio t = 0.25);
  check "failed_ratio of nothing attempted is an error"
    (match Stats.failed_ratio (Stats.tally ()) with _ -> false | exception Invalid_argument _ -> true)

(* Run the command; its standard output and exit code. *)
let run argv =
  let out = Filename.temp_file "perfbench" ".out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid = Unix.create_process argv.(0) argv Unix.stdin fd Unix.stderr in
  Unix.close fd;
  let _, status = Unix.waitpid [] pid in
  let lines = In_channel.with_open_text out In_channel.input_lines in
  Sys.remove out;
  (status, lines)

let last = function [] -> "" | l -> List.nth l (List.length l - 1)
let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec at i = i + k <= n && (String.sub s i k = sub || at (i + 1)) in
  at 0

let test_command ~exe ~rdtsim =
  let args w extra =
    Array.append
      [| exe; "--workload"; w; "--seed"; "3"; "--seconds"; "1"; "--size"; "tiny"; "--rdtsim"; rdtsim |]
      extra
  in
  List.iter
    (fun w ->
      let status, lines = run (args w [| "--trace"; "0" |]) in
      let json = last lines in
      check (w ^ ": tiny pass exits 0") (status = Unix.WEXITED 0);
      check (w ^ ": result line is correct")
        (String.starts_with ~prefix:"{\"correct\": true" json
        && List.for_all
             (fun m -> contains json (Printf.sprintf "\"%s\": {\"value\": " m))
             [ "setup_s"; "events_per_cpu_s"; "op_mean_ms"; "peak_rss_mb" ]);
      check (w ^ ": the tail is printed with its sample count")
        (List.exists (fun l -> contains l "op_tail_ms" && contains l "n=") lines);
      let status, lines = run (args w [| "--trace"; "0"; "--wrong-oracle" |]) in
      check (w ^ ": a wrong expected verdict fails the command") (status = Unix.WEXITED 1);
      check (w ^ ": and prints no result") (not (contains (last lines) "\"correct\"")))
    [ "simulate"; "watch"; "serve-ingest"; "serve-query" ];
  (* the same seed feeds the same events *)
  let inputs () =
    let _, lines = run (args "serve-ingest" [| "--trace"; "0" |]) in
    List.filter (String.starts_with ~prefix:"input ") lines
  in
  let a = inputs () in
  check "input hashes repeat for a seed" (a <> [] && a = inputs ());
  let status, lines = run (args "serve-ingest" [| "--trace"; "1" |]) in
  let json = last lines in
  check "traced pass exits 0" (status = Unix.WEXITED 0);
  check "traced pass reports per-layer metrics"
    (List.for_all
       (fun m -> contains json (Printf.sprintf "\"%s\": {\"value\": " m))
       [ "runtime.forced_ckpts"; "online.observe_us_last_decile"; "wal.fsyncs"; "serve.backlog_steps";
         "query.pattern_ms"; "trace.overhead_pct" ])

let () =
  test_tail ();
  test_reference_speed ();
  test_tally ();
  test_command ~exe:Sys.argv.(1) ~rdtsim:Sys.argv.(2);
  if !failures > 0 then begin
    Printf.printf "%d failures\n" !failures;
    exit 1
  end
