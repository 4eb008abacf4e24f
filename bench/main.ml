(* Benchmark and reproduction harness.

   Default: regenerate every table and figure of the paper's evaluation
   (see DESIGN.md's experiment index and EXPERIMENTS.md for the
   paper-vs-measured record), then run the bechamel micro-benchmarks of
   the protocol and analysis hot paths.  The experiments alone are
   `rdtsim experiments [--json FILE]`.

     dune exec bench/main.exe                 # everything (10 seeds)
     dune exec bench/main.exe -- --quick      # 3 seeds
     dune exec bench/main.exe -- --micro      # micro-benchmarks only
     dune exec bench/main.exe -- --jobs 4     # shard the grid over 4 domains
     dune exec bench/main.exe -- --json out.json   # timing report path

   A machine-readable timing report (grid wall-clock, cells/sec, per-cell
   and per-protocol run cost, micro estimates) is always written; the
   default path is BENCH_results.json in the working directory. *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks: one per hot path                                  *)
(* ------------------------------------------------------------------ *)

(* A micro is a bechamel test and the number of steps one run of it
   takes.  The report gives time per step: a step of under a microsecond
   runs in a fixed batch per run, so each run is long enough for the
   clock and the fit. *)
type micro = { test : Test.t; steps : int }

let micro name f = { test = Test.make ~name (Staged.stage f); steps = 1 }

let batched ~steps name f =
  {
    test =
      Test.make ~name
        (Staged.stage (fun () ->
             for i = 0 to steps - 1 do
               f i
             done));
    steps;
  }

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
          micro (Printf.sprintf "run/%s/n=%d" pname n) (fun () ->
              ignore (Rdt_core.Runtime.run (run_config protocol n))))
        [ "none"; "fdas"; "bhmr-v1"; "bhmr" ])
    [ 8; 32 ]

let analysis_tests =
  let protocol = Rdt_core.Registry.find_exn "bhmr" in
  let pattern = (Rdt_core.Runtime.run (run_config protocol 8)).Rdt_core.Runtime.pattern in
  (* the shape of one perfbench simulate run: n = 16, 400 messages *)
  let simulate_shape =
    (Rdt_core.Runtime.run { (run_config protocol 16) with Rdt_core.Runtime.max_messages = 400 })
      .Rdt_core.Runtime.pattern
  in
  [
    micro "analysis/rgraph-build" (fun () -> ignore (Rdt_pattern.Rgraph.build pattern));
    micro "analysis/rgraph-reach-all" (fun () ->
        let g = Rdt_pattern.Rgraph.build pattern in
        ignore (Rdt_pattern.Rgraph.reaches g (0, 0) (1, 1)));
    micro "analysis/tdv-replay" (fun () -> ignore (Rdt_pattern.Tdv.compute pattern));
    micro "analysis/rdt-check" (fun () -> ignore (Rdt_core.Checker.run pattern));
    micro "analysis/rdt-check/n=16" (fun () -> ignore (Rdt_core.Checker.run simulate_shape));
    (* a few µs each: batched, as the sub-µs micros are, for a usable fit *)
    batched ~steps:100 "analysis/min-gcp-fixpoint" (fun _ ->
        ignore (Rdt_core.Min_gcp.minimum pattern (0, 1)));
    batched ~steps:100 "analysis/recovery-line" (fun _ ->
        let bounds =
          Array.init (Rdt_pattern.Pattern.n pattern) (fun i ->
              Rdt_pattern.Pattern.last_index pattern i)
        in
        ignore (Rdt_recovery.Recovery_line.max_consistent_bounded pattern bounds));
  ]

(* One protocol step on a warmed state pair: the sender checkpoints, so
   each message carries a new dependency, then [make_payload], and the
   receiver's [predicates], [must_force] and [absorb].  The states are
   warmed by 20n messages between random pairs, and the receiver has
   sent, so FDAS's and C1's send conditions hold.  The sender is the
   last process: the receiver has absorbed every earlier message, so
   the one new dependency is the sender's own entry, n - 1, and the
   predicates' scans for it walk the whole vector. *)
let step_test pname n =
  let (module P : Rdt_core.Protocol.S) = Rdt_core.Registry.find_exn pname in
  let states = Array.init n (fun pid -> P.create ~n ~pid) in
  Array.iter P.on_checkpoint states;
  let rng = Rdt_dist.Rng.create n in
  for _ = 1 to 20 * n do
    let src = Rdt_dist.Rng.int rng n in
    let dst = (src + 1 + Rdt_dist.Rng.int rng (n - 1)) mod n in
    let m = P.make_payload states.(src) ~dst in
    if P.must_force states.(dst) ~src m then P.on_checkpoint states.(dst);
    P.absorb states.(dst) ~src m
  done;
  let src = n - 1 in
  let a = states.(src) and b = states.(0) in
  ignore (P.make_payload b ~dst:1);
  batched ~steps:100 (Printf.sprintf "protocol/%s-step/n=%d" pname n) (fun _ ->
      P.on_checkpoint a;
      let m = P.make_payload a ~dst:0 in
      ignore (P.predicates b ~src m);
      ignore (P.must_force b ~src m);
      P.absorb b ~src m)

let step_tests = [ step_test "bhmr" 16; step_test "bhmr" 64; step_test "fdas" 16 ]

(* The events of one BHMR run in the random environment at n = 16, the
   shape of perfbench watch's trace. *)
let watch_shape =
  lazy
    (let tr = Rdt_obs.Trace.ring ~capacity:20_000 in
     ignore
       (Rdt_core.Runtime.run
          {
            (run_config (Rdt_core.Registry.find_exn "bhmr") 16) with
            Rdt_core.Runtime.max_messages = 4500;
            trace = tr;
          });
     let events = Array.of_list (Rdt_obs.Trace.events tr) in
     if Array.length events < 11_000 then
       failwith "bench: watch-shape trace shorter than 11k events";
     events)

(* The JSONL codec, per line, over a fixed 1,000-event slice of it. *)
let trace_tests =
  let events = Array.sub (Lazy.force watch_shape) 10_000 1_000 in
  let lines = Array.map Rdt_obs.Trace.encode events in
  [
    batched ~steps:(Array.length lines) "trace/decode" (fun i ->
        ignore (Rdt_obs.Trace.decode lines.(i)));
    batched ~steps:(Array.length events) "trace/encode" (fun i ->
        ignore (Rdt_obs.Trace.encode events.(i)));
  ]

(* The serve wire codec, per [Events] body of 128 events (the frame size
   of perfbench serve-ingest), over ten consecutive bodies of the
   watch-shape trace. *)
let wire_tests =
  let module W = Rdt_check.Session.Wire in
  let events = Lazy.force watch_shape in
  let body k = W.Events (Array.to_list (Array.sub events (10_000 + (k * 128)) 128)) in
  let bodies = Array.init 10 body in
  let encoded = Array.map W.encode_request bodies in
  [
    batched ~steps:(Array.length bodies) "wire/encode" (fun i ->
        ignore (W.encode_request bodies.(i)));
    batched ~steps:(Array.length encoded) "wire/decode" (fun i ->
        ignore (W.decode_request encoded.(i)));
  ]

(* The durable layer's two steady-state costs at the same shape: one WAL
   record, and one snapshot image of a 10k-event history after 1,000
   more events.  The image benchmark copies a cache primed at 10k events
   on every run, so each run encodes the same 1,000-event step;
   [snapshot-encode] is the full re-encode of the same state, for
   comparison.  [codec/crc32] checksums that image, one step per byte.
   [online/rollback] restores the engine's export at 10k events, two
   restores per run: the rebuild from the surviving history that every
   [Rollback] event costs. *)
let durable_tests =
  let module W = Rdt_obs.Codec.Writer in
  let module Online = Rdt_check.Online in
  let module Snapshot = Rdt_durable.Snapshot in
  let record = W.create () in
  let ckpt =
    Rdt_obs.Trace.Ckpt
      {
        pid = 4;
        index = 37;
        kind = Rdt_pattern.Types.Forced;
        time = 2790;
        tdv = Some [| 27; 31; 33; 23; 37; 28; 29; 24; 30; 31; 26; 31; 28; 29; 31; 33 |];
        preds = [ "c1"; "c_fdas"; "c_fdi" ];
      }
  in
  let events = Lazy.force watch_shape in
  let engine = Online.create ~n:16 () in
  for i = 0 to 9_999 do
    Online.observe engine events.(i)
  done;
  let primed = Snapshot.Cache.create () in
  ignore (Snapshot.Cache.image primed engine);
  let export = Online.export engine in
  for i = 10_000 to 10_999 do
    Online.observe engine events.(i)
  done;
  [
    batched ~steps:100 "durable/wal-record" (fun _ ->
        W.clear record;
        ignore (Rdt_durable.Wal.add_record record ckpt));
    micro "durable/snapshot-image" (fun () ->
        ignore (Snapshot.Cache.image (Snapshot.Cache.copy primed) engine));
    micro "durable/snapshot-encode" (fun () -> ignore (Snapshot.encode (Online.export engine)));
    batched ~steps:2 "online/rollback" (fun _ -> ignore (Online.restore export));
    (let image = Snapshot.encode (Online.export engine) in
     {
       test =
         Test.make ~name:"codec/crc32" (Staged.stage (fun () -> ignore (Rdt_obs.Codec.crc32 image)));
       steps = String.length image;
     });
  ]

(* The data-structure kernels under the online checker and the durable
   layer, at the watch shape.  [vclock/*]: 100 pairs of checkpoint TDVs
   of the watch-shape trace, consecutive checkpoints of two different
   processes; a step copies the first and joins the second into it
   ([join] with a no-op callback), so the two differ by the join alone.
   [online/zcycle]: one step is a fresh [Online] fed, as one batch, the
   first 1,000 events of a protocol-none run at n = 4, whose Z-cycles
   make every R-edge propagate through the max-reach joins.
   [queue/schedule-pop]: the event engine's queue held at 64 entries; a
   step pops the earliest and schedules it again 1 to 64 ticks later. *)
let kernel_tests =
  let module Vclock = Rdt_dist.Vclock in
  let module Online = Rdt_check.Online in
  let module Event_queue = Rdt_dist.Event_queue in
  let events = Lazy.force watch_shape in
  let tdvs =
    Array.to_list events
    |> List.filter_map (function
         | Rdt_obs.Trace.Ckpt { pid; tdv = Some a; _ } ->
             let v = Vclock.create ~n:(Array.length a) in
             Array.iteri (Vclock.set v) a;
             Some (pid, v)
         | _ -> None)
    |> Array.of_list
  in
  let pairs =
    let rec pick k count acc =
      if count = 100 then Array.of_list (List.rev acc)
      else
        let (p, a), (q, b) = (tdvs.(k), tdvs.(k + 1)) in
        if p <> q then pick (k + 1) (count + 1) ((a, b) :: acc) else pick (k + 1) count acc
    in
    pick (Array.length tdvs / 2) 0 []
  in
  let zcycle_prefix =
    let tr = Rdt_obs.Trace.ring ~capacity:20_000 in
    ignore
      (Rdt_core.Runtime.run
         {
           (run_config (Rdt_core.Registry.find_exn "none") 4) with
           Rdt_core.Runtime.max_messages = 600;
           trace = tr;
         });
    let events = Array.of_list (Rdt_obs.Trace.events tr) in
    if Array.length events < 1_000 then failwith "bench: online/zcycle run shorter than 1,000 events";
    let prefix = Array.sub events 0 1_000 in
    let t = Online.create ~n:4 () in
    Array.iter (Online.observe t) prefix;
    if not (Online.zcycle t) then failwith "bench: online/zcycle prefix has no Z-cycle";
    prefix
  in
  [
    batched ~steps:(Array.length pairs) "vclock/merge" (fun i ->
        let a, b = pairs.(i) in
        Vclock.merge (Vclock.copy a) b);
    batched ~steps:(Array.length pairs) "vclock/join" (fun i ->
        let a, b = pairs.(i) in
        Vclock.join (Vclock.copy a) b ~f:(fun _ _ -> ()));
    micro "online/zcycle" (fun () ->
        let t = Online.create ~n:4 () in
        Array.iter (Online.observe t) zcycle_prefix;
        ignore (Online.zcycle t));
    (let delays = Array.init 64 (fun k -> 1 + (k * 37 mod 64)) in
     let q = Event_queue.create () in
     Array.iteri (fun k d -> Event_queue.schedule q ~time:d k) delays;
     batched ~steps:1_000 "queue/schedule-pop" (fun i ->
         match Event_queue.pop q with
         | Some (t, k) -> Event_queue.schedule q ~time:(t + delays.(i land 63)) k
         | None -> assert false));
  ]

let run_micro ~report () =
  Format.printf "@.== MICRO: bechamel micro-benchmarks (ns per step) ==@.";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~stabilize:true () in
  let micros =
    protocol_tests @ step_tests @ analysis_tests @ trace_tests @ wire_tests @ durable_tests
    @ kernel_tests
  in
  let grouped = Test.make_grouped ~name:"rdt" ~fmt:"%s %s" (List.map (fun m -> m.test) micros) in
  let steps = List.map (fun m -> ("rdt " ^ Test.name m.test, m.steps)) micros in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Rdt_dist.Tbl.bindings_sorted ~compare:String.compare results in
  let table = Rdt_harness.Table.create ~header:[ "benchmark"; "steps/run"; "time/step"; "r²" ] in
  List.iter
    (fun (name, ols) ->
      let steps = List.assoc name steps in
      let estimate =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> e /. float_of_int steps
        | Some [] | None -> nan
      in
      let r_square =
        match Analyze.OLS.r_square ols with Some r when not (Float.is_nan r) -> Some r | _ -> None
      in
      let pretty =
        if Float.is_nan estimate then "-"
        else if estimate > 1e6 then Printf.sprintf "%.3f ms" (estimate /. 1e6)
        else if estimate > 1e3 then Printf.sprintf "%.3f us" (estimate /. 1e3)
        else Printf.sprintf "%.1f ns" estimate
      in
      if not (Float.is_nan estimate) then
        Rdt_harness.Bench_report.add_micro report ?r_square ~name ~ns:estimate;
      Rdt_harness.Table.add_row table
        [
          name;
          string_of_int steps;
          pretty;
          (match r_square with Some r -> Printf.sprintf "%.4f" r | None -> "-");
        ])
    (List.sort compare rows);
  Rdt_harness.Table.print table

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  let quick = ref false and micro_only = ref false in
  let jobs = ref None and json = ref "BENCH_results.json" in
  (* Arg.parse rejects any other argument with the usage on stderr and
     exit code 2, so a mistyped flag never silently runs the full suite *)
  Arg.parse
    (Arg.align
       [
      ("--quick", Arg.Set quick, " 3 seeds instead of 10");
      ("--micro", Arg.Set micro_only, " micro-benchmarks only");
      ("--jobs", Arg.Int (fun j -> jobs := Some j), "N shard the grid over N domains");
      ("--json", Arg.Set_string json, "FILE timing report path");
    ])
    (fun arg -> raise (Arg.Bad ("unexpected argument " ^ arg)))
    "usage: main.exe [--quick] [--micro] [--jobs N] [--json FILE]";
  let quick = !quick and micro_only = !micro_only in
  let jobs =
    match !jobs with
    | None -> 1
    | Some j when j >= 1 -> j
    | Some _ -> invalid_arg "bench: --jobs expects a positive integer"
  in
  let json = !json in
  let report = Rdt_harness.Bench_report.create ~jobs in
  let t0 = Rdt_obs.Meter.now () in
  if not micro_only then Rdt_harness.Experiments.(run ~quick ~jobs ~report entries);
  run_micro ~report ();
  Rdt_harness.Bench_report.set_wall report (Rdt_obs.Meter.now () -. t0);
  Rdt_harness.Bench_report.record_obs report;
  Rdt_harness.Bench_report.write json report;
  Format.printf "@.wrote %s (wall %.2fs, %d cells, jobs=%d)@." json
    (Rdt_harness.Bench_report.wall report)
    (List.length (Rdt_harness.Bench_report.cells report))
    jobs;
  Format.print_flush ()
