(* rdtsim — command-line driver for the RDT checkpointing library.

   Subcommands:
     run          simulate one (environment, protocol) pair and report
     verify       run + full offline RDT verification (3 checkers)
     experiments  reproduce the paper's figures and tables
     table        print selected experiment tables (shardable via --jobs)
     recover      simulate crashes and compute the recovery line
     snapshot     coordinated Chandy-Lamport snapshots over a workload
     twophase     coordinated Koo-Toueg two-phase checkpointing
     crashrun     inject online crashes and recover while the run continues
     watch        stream a trace (or a live run) through the incremental online checker
     serve        daemon: many concurrent client streams over a Unix socket
     feed         client: stream a recorded trace to a running serve daemon
     list         available protocols and environments *)

open Cmdliner

let protocol_conv =
  let parse s =
    match Rdt_core.Registry.find s with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown protocol %S (try: %s)" s
               (String.concat ", " (List.map Rdt_core.Protocol.name Rdt_core.Registry.all))))
  in
  let print ppf p = Format.pp_print_string ppf (Rdt_core.Protocol.name p) in
  Arg.conv (parse, print)

let env_conv =
  let parse s =
    match Rdt_workloads.Registry.find s with
    | Some env -> Ok (s, env)
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown environment %S (try: %s)" s
               (String.concat ", " Rdt_workloads.Registry.names)))
  in
  let print ppf (name, _) = Format.pp_print_string ppf name in
  Arg.conv (parse, print)

let protocol_arg =
  Arg.(
    value
    & opt protocol_conv (Rdt_core.Registry.find_exn "bhmr")
    & info [ "p"; "protocol" ] ~docv:"PROTOCOL" ~doc:"Checkpointing protocol.")

let env_arg =
  Arg.(
    value
    & opt env_conv ("random", Rdt_workloads.Registry.find_exn "random")
    & info [ "e"; "env" ] ~docv:"ENV" ~doc:"Workload environment.")

let n_arg =
  Arg.(value & opt int 8 & info [ "n"; "processes" ] ~docv:"N" ~doc:"Number of processes.")

let seed_arg = Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let messages_arg =
  Arg.(
    value & opt int 2000 & info [ "m"; "messages" ] ~docv:"M" ~doc:"Application message budget.")

(* The one wall-clock sleep in rdtsim: --pace throttles watch and feed to
   one event per [micros] microseconds.  It shapes timing, never
   simulation output. *)
let pace_sleep micros = if micros > 0 then Unix.sleepf (1e-6 *. float_of_int micros)

(* ---- network-fault flags (shared by run, verify and crashrun) ---- *)

let partition_conv =
  let parse s =
    let fail () =
      Error (`Msg (Printf.sprintf "bad partition %S (expected PIDS:FROM-TO, e.g. 0,3:4000-6000)" s))
    in
    match String.split_on_char ':' s with
    | [ pids; window ] -> (
        match String.split_on_char '-' window with
        | [ a; b ] -> (
            try
              Ok
                {
                  Rdt_dist.Faults.between =
                    List.map int_of_string (String.split_on_char ',' pids);
                  from_t = int_of_string a;
                  to_t = int_of_string b;
                }
            with Failure _ -> fail ())
        | _ -> fail ())
    | _ -> fail ()
  in
  let print ppf (p : Rdt_dist.Faults.partition) =
    Format.fprintf ppf "%s:%d-%d"
      (String.concat "," (List.map string_of_int p.between))
      p.from_t p.to_t
  in
  Arg.conv (parse, print)

let intermittent_conv =
  let parse s =
    let fail () =
      Error
        (`Msg
          (Printf.sprintf "bad intermittent link %S (expected HOST:FROM-TO:UP/DOWN, e.g. 2:0-8000:150/350)" s))
    in
    match String.split_on_char ':' s with
    | [ host; window; cycle ] -> (
        match (String.split_on_char '-' window, String.split_on_char '/' cycle) with
        | [ a; b ], [ up; down ] -> (
            try
              Ok
                {
                  Rdt_dist.Faults.host = int_of_string host;
                  from_t = int_of_string a;
                  to_t = int_of_string b;
                  up = int_of_string up;
                  down = int_of_string down;
                }
            with Failure _ -> fail ())
        | _ -> fail ())
    | _ -> fail ()
  in
  let print ppf (l : Rdt_dist.Faults.intermittent) =
    Format.fprintf ppf "%d:%d-%d:%d/%d" l.host l.from_t l.to_t l.up l.down
  in
  Arg.conv (parse, print)

let faults_term =
  let drop =
    Arg.(
      value & opt float 0.0
      & info [ "drop" ] ~docv:"P"
          ~doc:"Per-packet drop probability; any fault flag routes messages through the \
                reliable-delivery transport.")
  in
  let dup =
    Arg.(
      value & opt float 0.0
      & info [ "dup" ] ~docv:"P" ~doc:"Probability a packet is duplicated by the network.")
  in
  let reorder =
    Arg.(
      value & opt float 0.0
      & info [ "reorder" ] ~docv:"P"
          ~doc:"Probability a packet is held back by an adversarial extra delay.")
  in
  let reorder_window =
    Arg.(
      value & opt int 50
      & info [ "reorder-window" ] ~docv:"W"
          ~doc:"Maximum extra delay of a held-back packet (with $(b,--reorder)).")
  in
  let partition =
    Arg.(
      value
      & opt_all partition_conv []
      & info [ "partition" ] ~docv:"PIDS:FROM-TO"
          ~doc:"Cut the comma-separated processes off from everyone else between the two \
                instants, e.g. $(b,3:4000-6000) (repeatable).")
  in
  let intermittent =
    Arg.(
      value
      & opt_all intermittent_conv []
      & info [ "intermittent" ] ~docv:"HOST:FROM-TO:UP/DOWN"
          ~doc:"Give the host a mobile-style flapping link: inside the window its links \
                repeat UP connected instants then DOWN severed ones, e.g. \
                $(b,2:0-8000:150/350) (repeatable).")
  in
  let retx_timeout =
    Arg.(
      value
      & opt int Rdt_dist.Transport.default_params.retx_timeout
      & info [ "retx-timeout" ] ~docv:"T" ~doc:"Initial retransmission timeout of the transport.")
  in
  let max_retx =
    Arg.(
      value
      & opt int Rdt_dist.Transport.default_params.max_retx
      & info [ "max-retx" ] ~docv:"K"
          ~doc:"Retransmissions before a message is abandoned as undeliverable.")
  in
  let mk drop dup reorder reorder_window partitions intermittent retx_timeout max_retx =
    let spec =
      {
        Rdt_dist.Faults.drop;
        dup;
        reorder;
        reorder_window = (if reorder > 0.0 then reorder_window else 0);
        partitions;
        intermittent;
      }
    in
    let params = { Rdt_dist.Transport.retx_timeout; max_retx } in
    (* faults alone get the default transport from [Runtime.configure] *)
    let transport = if params = Rdt_dist.Transport.default_params then None else Some params in
    (spec, transport)
  in
  Term.(
    const mk $ drop $ dup $ reorder $ reorder_window $ partition $ intermittent $ retx_timeout
    $ max_retx)

(* ---- the simulated workload (run, verify, recover, crashrun, watch) ---- *)

type workload = {
  env : string * Rdt_dist.Env.t;
  protocol : Rdt_core.Protocol.t;
  n : int;
  seed : int;
  messages : int;
  faults : Rdt_dist.Faults.spec;
  transport : Rdt_dist.Transport.params option;
}

let workload_term =
  Term.(
    const (fun env protocol n seed messages (faults, transport) ->
        { env; protocol; n; seed; messages; faults; transport })
    $ env_arg $ protocol_arg $ n_arg $ seed_arg $ messages_arg $ faults_term)

let run_workload ?crashes ~trace w =
  Rdt_core.Runtime.run
    (Rdt_core.Runtime.configure ~n:w.n ~seed:w.seed ~messages:w.messages ?crashes ~faults:w.faults
       ?transport:w.transport ~trace (snd w.env) w.protocol)

(* ---- event tracing (run, verify, recover and crashrun) ---- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a JSONL event trace of the run to $(docv), one self-describing JSON object \
           per line; $(b,rdtsim trace) summarizes, filters and replay-checks it offline.")

(* Run [f] with a trace recorder: [Trace.null] when no file was asked
   for, otherwise a JSONL channel recorder with the run's [Meta] header
   already written. *)
let with_trace file ~mode w f =
  match file with
  | None -> f Rdt_obs.Trace.null
  | Some file ->
      Out_channel.with_open_text file (fun oc ->
          let tr = Rdt_obs.Trace.to_channel oc in
          Rdt_obs.Trace.emit tr
            (Rdt_obs.Trace.Meta
               {
                 n = w.n;
                 protocol = Rdt_core.Protocol.name w.protocol;
                 env = fst w.env;
                 seed = w.seed;
                 mode;
               });
          f tr)

let print_metrics (r : Rdt_core.Runtime.result) =
  Format.printf "%a@." Rdt_core.Metrics.pp r.metrics;
  Format.printf "%a@." Rdt_pattern.Pattern.pp_summary r.pattern;
  (match r.transport with
  | None -> ()
  | Some s -> Format.printf "%a@." Rdt_dist.Transport.pp_stats s);
  if r.predicate_counts <> [] then
    Format.printf "predicates fired: %s@."
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) r.predicate_counts))

let run_cmd =
  let doc = "Simulate one run and print its metrics." in
  let dot =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE" ~doc:"Write the rollback-dependency graph in Graphviz format.")
  in
  let draw =
    Arg.(
      value & flag
      & info [ "draw" ]
          ~doc:"Print an ASCII space-time diagram of the run (small runs only).")
  in
  let action w dot draw trace =
    with_trace trace ~mode:"run" w @@ fun tr ->
    let r = run_workload ~trace:tr w in
    print_metrics r;
    if draw then begin
      match Rdt_pattern.Render.ascii r.pattern with
      | Ok diagram -> print_string diagram
      | Error e -> Format.printf "cannot draw: %s@." e
    end;
    match dot with
    | None -> ()
    | Some file ->
        let g = Rdt_pattern.Rgraph.build r.pattern in
        Out_channel.with_open_text file (fun oc ->
            Out_channel.output_string oc (Rdt_pattern.Rgraph.to_dot g));
        Format.printf "R-graph written to %s@." file
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const action $ workload_term $ dot $ draw $ trace_arg)

(* ---- checker-algorithm selection (verify and watch) ---- *)

type algo_sel = All | One of Rdt_core.Checker.algo

let algo_conv =
  let parse s =
    if String.lowercase_ascii s = "all" then Ok All
    else
      match Rdt_core.Checker.algo_of_string s with
      | Ok a -> Ok (One a)
      | Error e -> Error (`Msg e)
  in
  let print ppf = function
    | All -> Format.pp_print_string ppf "all"
    | One a -> Format.pp_print_string ppf (Rdt_core.Checker.algo_name a)
  in
  Arg.conv (parse, print)

let algo_arg =
  Arg.(
    value
    & opt algo_conv All
    & info [ "algo" ] ~docv:"ALGO"
        ~doc:
          "Checker algorithm passed to $(b,Checker.run): $(b,all), $(b,rgraph), \
           $(b,chains), $(b,doubling) or $(b,online).")

(* the name recorded in [Verdict] trace events; "rgraph_tdv" predates the
   unified API and is kept so old traces keep replay-checking cleanly *)
let verdict_name = function
  | `Rgraph -> "rgraph_tdv"
  | a -> Rdt_core.Checker.algo_name a

let checker_label = function
  | `Rgraph -> "R-graph vs TDV     "
  | `Chains -> "causal-chain search"
  | `Doubling -> "CM-path doubling   "
  | `Online -> "incremental online "

let verify_cmd =
  let doc = "Simulate one run and verify the RDT property offline (all four checkers)." in
  let action w sel trace =
    with_trace trace ~mode:"verify" w @@ fun tr ->
    let r = run_workload ~trace:tr w in
    print_metrics r;
    let algos = match sel with All -> Rdt_core.Checker.all_algos | One a -> [ a ] in
    (* record each checker's verdict in the trace so [rdtsim trace replay]
       can assert the rebuilt pattern agrees with the live run *)
    let reports =
      List.map
        (fun a ->
          let rep = Rdt_core.Checker.run ~algo:a r.pattern in
          Rdt_obs.Trace.emit tr
            (Rdt_obs.Trace.Verdict { checker = verdict_name a; rdt = rep.Rdt_core.Checker.rdt });
          Format.printf "%s: %a@." (checker_label a) Rdt_core.Checker.pp_report rep;
          rep)
        algos
    in
    Format.printf "Corollary 4.5      : %s@."
      (if Rdt_core.Min_gcp.corollary_holds r.pattern then "holds" else "VIOLATED");
    if List.exists (fun (rep : Rdt_core.Checker.report) -> not rep.rdt) reports then exit 1
  in
  Cmd.v (Cmd.info "verify" ~doc)
    Term.(const action $ workload_term $ algo_arg $ trace_arg)

(* ---- grid sharding flags (experiments and table) ---- *)

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Shard the experiment grid across $(docv) domains (default: 1). The printed \
              tables are bit-identical for every value.")

let resolve_jobs = function
  | None -> 1
  | Some j when j >= 1 -> j
  | Some _ -> invalid_arg "Cli: --jobs expects a positive integer"

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the machine-readable timing report (grid wall-clock, cells/sec, per-cell \
              and per-protocol run cost) to $(docv).")

let write_report report json =
  match json with
  | None -> ()
  | Some file ->
      Rdt_harness.Bench_report.record_obs report;
      Rdt_harness.Bench_report.write file report;
      Format.printf "timing report written to %s@." file

let experiments_cmd =
  let doc = "Reproduce the paper's figures and tables." in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Use 3 seeds instead of 10 (fast smoke run).")
  in
  let action quick jobs json =
    let jobs = resolve_jobs jobs in
    let report = Rdt_harness.Bench_report.create ~jobs in
    Rdt_harness.Experiments.(run ~quick ~jobs ~report entries);
    write_report report json
  in
  Cmd.v (Cmd.info "experiments" ~doc) Term.(const action $ quick $ jobs_arg $ json_arg)

let table_cmd =
  let doc = "Print selected experiment tables of the paper's evaluation." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the named tables on seeds 1..K and prints them.  The underlying experiment \
         grids shard their cells across $(b,--jobs) domains; every cell draws its randomness \
         from a seed derived from the cell coordinates alone, so the output is bit-identical \
         for every $(b,--jobs) value.";
    ]
  in
  let table_names =
    List.filter_map (fun e -> e.Rdt_harness.Experiments.name) Rdt_harness.Experiments.entries
  in
  let names_arg =
    Arg.(
      value
      & pos_all (enum (List.map (fun n -> (n, n)) table_names)) []
      & info [] ~docv:"TABLE"
          ~doc:
            (Printf.sprintf "Tables to print (default: all).  One of %s."
               (String.concat ", " table_names)))
  in
  let seeds_arg =
    Arg.(value & opt int 3 & info [ "seeds" ] ~docv:"K" ~doc:"Run each grid on seeds 1..$(docv).")
  in
  let action names jobs seeds_k json =
    let jobs = resolve_jobs jobs in
    if seeds_k < 1 then invalid_arg "Cli: --seeds expects a positive integer";
    let seeds = List.init seeds_k (fun i -> i + 1) in
    let report = Rdt_harness.Bench_report.create ~jobs in
    let names = if names = [] then table_names else names in
    Rdt_harness.Experiments.(run ~jobs ~report ~seeds (List.map find names));
    write_report report json
  in
  Cmd.v
    (Cmd.info "table" ~doc ~man)
    Term.(const action $ names_arg $ jobs_arg $ seeds_arg $ json_arg)

let recover_cmd =
  let doc = "Simulate crashes at the end of a run and compute the recovery line." in
  let crash_arg =
    Arg.(
      value & opt_all int [ 0 ]
      & info [ "crash" ] ~docv:"PID" ~doc:"Process that crashes (repeatable).")
  in
  let at_arg =
    Arg.(
      value & opt float 0.9
      & info [ "at" ] ~docv:"FRACTION"
          ~doc:"Crash time as a fraction of the run duration; the crashed processes lose every \
                checkpoint taken after it.")
  in
  let action w crashes at trace =
    with_trace trace ~mode:"recover" w @@ fun tr ->
    let r = run_workload ~trace:tr w in
    print_metrics r;
    let pat = r.pattern in
    let crash_time =
      int_of_float (at *. float_of_int r.metrics.Rdt_core.Metrics.duration)
    in
    (* the crash destroys the volatile state and everything after
       [crash_time]: restart from the last durable checkpoint *)
    let crashes =
      List.map
        (fun pid -> Rdt_recovery.Recovery_line.crash_at pat pid ~time:crash_time)
        (List.sort_uniq compare crashes)
    in
    let outcome = Rdt_recovery.Recovery_line.recover pat crashes in
    Format.printf "crash at t=%d of: %s@." crash_time
      (String.concat ", "
         (List.map (fun c -> string_of_int c.Rdt_recovery.Recovery_line.pid) crashes));
    Format.printf "%a@." Rdt_recovery.Recovery_line.pp_outcome outcome
  in
  Cmd.v (Cmd.info "recover" ~doc)
    Term.(const action $ workload_term $ crash_arg $ at_arg $ trace_arg)

(* snapshot and twophase: one coordinated run, configured alike *)
let coordinated_term algo =
  let period_arg =
    Arg.(
      value & opt int 500
      & info [ "period" ] ~docv:"T"
          ~doc:"Delay between the end of one checkpointing round and the start of the next.")
  in
  let run env n seed messages period =
    let module C = Rdt_coordinated.Coordinated in
    C.run
      {
        (C.default_config algo (snd env)) with
        C.n;
        seed;
        max_messages = messages;
        initiation_period = period;
      }
  in
  Term.(const run $ env_arg $ n_arg $ seed_arg $ messages_arg $ period_arg)

let cut_string cut = String.concat ";" (List.map string_of_int (Array.to_list cut))

let snapshot_cmd =
  let doc = "Run coordinated (Chandy-Lamport) snapshots over a workload and verify the cuts." in
  let action (r : Rdt_coordinated.Coordinated.result) =
    Format.printf "%d app messages, %d snapshots completed, %d markers, mean latency %.0f@."
      r.metrics.app_messages r.metrics.rounds_completed r.metrics.control_messages
      r.metrics.mean_latency;
    List.iter
      (fun (s : Rdt_coordinated.Coordinated.round) ->
        Format.printf "snapshot %d at t=%d..%d: cut [%s], %d in-transit, consistent=%b@." s.id
          s.initiated_at s.completed_at (cut_string s.cut) (List.length s.channel_state)
          (Rdt_pattern.Consistency.consistent_global r.pattern s.cut))
      r.rounds
  in
  Cmd.v (Cmd.info "snapshot" ~doc)
    Term.(const action $ coordinated_term Rdt_coordinated.Coordinated.Chandy_lamport)

let twophase_cmd =
  let doc = "Run Koo-Toueg two-phase coordinated checkpointing over a workload." in
  let action (r : Rdt_coordinated.Coordinated.result) =
    Format.printf
      "%d app messages, %d rounds, %d control messages, %d checkpoints, mean %.1f participants, mean latency %.0f@."
      r.metrics.app_messages r.metrics.rounds_completed r.metrics.control_messages
      r.metrics.checkpoints_taken r.metrics.mean_participants r.metrics.mean_latency;
    List.iter
      (fun (rd : Rdt_coordinated.Coordinated.round) ->
        Format.printf "round %d t=%d..%d: %d participants, cut [%s], consistent=%b@." rd.id
          rd.initiated_at rd.completed_at (List.length rd.participants) (cut_string rd.cut)
          (Rdt_pattern.Consistency.consistent_global r.pattern rd.cut))
      r.rounds
  in
  Cmd.v (Cmd.info "twophase" ~doc)
    Term.(const action $ coordinated_term Rdt_coordinated.Coordinated.Koo_toueg)

let crashrun_cmd =
  let doc = "Inject fail-stop crashes during the run and recover online." in
  let crash_arg =
    Arg.(
      value
      & opt_all (t2 ~sep:'@' int int) [ (0, 3000) ]
      & info [ "crash" ] ~docv:"PID@TIME" ~doc:"Crash of PID at TIME (repeatable).")
  in
  let repair_arg =
    Arg.(value & opt int 200 & info [ "repair" ] ~docv:"D" ~doc:"Downtime before recovery.")
  in
  let action w crashes repair trace =
    let module R = Rdt_core.Runtime in
    with_trace trace ~mode:"crashrun" w @@ fun tr ->
    let crashes =
      List.map (fun (victim, at) -> { R.victim; at; repair_delay = repair }) crashes
    in
    let r = run_workload ~crashes ~trace:tr w in
    List.iter
      (fun (rc : R.recovery) ->
        Format.printf
          "crash of P%d at t=%d: line=[%s] undone=%d ckpts_undone=%d dead_msgs=%d replayed=%d@."
          rc.crash.victim rc.crash.at
          (cut_string rc.line) rc.events_undone rc.checkpoints_undone rc.messages_undone
          rc.messages_replayed)
      r.recoveries;
    Format.printf
      "surviving: %d deliveries; taken: %d basic + %d forced checkpoints; %d events undone \
       total@."
      r.metrics.messages r.metrics.basic r.metrics.forced
      (List.fold_left (fun a (rc : R.recovery) -> a + rc.events_undone) 0 r.recoveries);
    (match r.transport with
    | Some s when s.retransmissions + s.packets_dropped + s.undeliverable > 0 ->
        Format.printf "network: %d retransmissions, %d packets dropped, %d undeliverable@."
          s.retransmissions s.packets_dropped s.undeliverable
    | Some _ | None -> ());
    Format.printf "%a@." Rdt_pattern.Pattern.pp_summary r.pattern;
    let rep = Rdt_core.Checker.run r.pattern in
    Rdt_obs.Trace.emit tr
      (Rdt_obs.Trace.Verdict { checker = "rgraph_tdv"; rdt = rep.Rdt_core.Checker.rdt });
    Format.printf "RDT on the surviving execution: %a@." Rdt_core.Checker.pp_report rep
  in
  Cmd.v (Cmd.info "crashrun" ~doc)
    Term.(const action $ workload_term $ crash_arg $ repair_arg $ trace_arg)

(* ---- offline trace tooling ---- *)

let trace_file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"JSONL trace file.")

let load_trace file =
  match Rdt_obs.Trace.read_file file with
  | Ok events -> events
  | Error e ->
      Format.eprintf "rdtsim: %s@." e;
      exit 2

let trace_summary_cmd =
  let doc = "Summarize a trace: event counts by kind, forced-checkpoint predicates." in
  let action file =
    let events = load_trace file in
    (match Rdt_obs.Replay.meta events with
    | Some (n, protocol, env, seed, mode) ->
        Format.printf "%s: protocol=%s env=%s n=%d seed=%d@." mode protocol env n seed
    | None -> ());
    Format.printf "%a@." Rdt_obs.Replay.pp_summary (Rdt_obs.Replay.summarize events)
  in
  Cmd.v (Cmd.info "summary" ~doc) Term.(const action $ trace_file_arg)

let trace_filter_cmd =
  let doc = "Reprint the events of the selected kinds, one JSON object per line." in
  let kinds_arg =
    Arg.(
      non_empty
      & pos_right 0 (enum (List.map (fun k -> (k, k)) Rdt_obs.Trace.kind_names)) []
      & info [] ~docv:"KIND"
          ~doc:
            (Printf.sprintf "Event kinds to keep.  One of %s."
               (String.concat ", " Rdt_obs.Trace.kind_names)))
  in
  let action file kinds =
    List.iter
      (fun ev ->
        if List.mem (Rdt_obs.Trace.kind_name ev) kinds then
          print_endline (Rdt_obs.Trace.encode ev))
      (load_trace file)
  in
  Cmd.v (Cmd.info "filter" ~doc) Term.(const action $ trace_file_arg $ kinds_arg)

let trace_replay_cmd =
  let doc =
    "Rebuild the run's pattern from a trace, re-run the three RDT checkers on it, and check \
     the verdicts against the ones recorded in the trace (non-zero exit on mismatch)."
  in
  let action file =
    let events = load_trace file in
    match Rdt_obs.Replay.rebuild events with
    | Error e ->
        Format.eprintf "rdtsim: cannot rebuild the pattern: %s@." e;
        exit 2
    | Ok pat ->
        Format.printf "%a@." Rdt_pattern.Pattern.pp_summary pat;
        let replayed =
          List.map
            (fun a -> (verdict_name a, (Rdt_core.Checker.run ~algo:a pat).Rdt_core.Checker.rdt))
            Rdt_core.Checker.all_algos
        in
        List.iter
          (fun (name, rdt) ->
            Format.printf "replayed %-10s: %s@." name
              (if rdt then "RDT holds" else "RDT VIOLATED"))
          replayed;
        let recorded = Rdt_obs.Replay.verdicts events in
        if recorded = [] then
          Format.printf "no verdicts recorded in the trace; nothing to compare@."
        else begin
          let mismatches =
            List.filter
              (fun (name, rdt) -> List.assoc_opt name replayed <> Some rdt)
              recorded
          in
          if mismatches = [] then
            Format.printf "replay agrees with the %d recorded verdict(s)@."
              (List.length recorded)
          else begin
            List.iter
              (fun (name, rdt) ->
                Format.printf "MISMATCH %s: live run recorded rdt=%b@." name rdt)
              mismatches;
            exit 1
          end
        end
  in
  Cmd.v (Cmd.info "replay" ~doc) Term.(const action $ trace_file_arg)

let trace_cmd =
  let doc = "Summarize, filter, or replay-and-check a JSONL event trace." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Operates on trace files produced by the $(b,--trace) option of $(b,run), \
         $(b,verify), $(b,recover) and $(b,crashrun).  $(b,replay) turns a trace into a \
         correctness artifact: it rebuilds the checkpoint-and-communication pattern from \
         the events alone and asserts that the offline RDT checkers reach the same verdicts \
         as the live run.";
    ]
  in
  Cmd.group (Cmd.info "trace" ~doc ~man) [ trace_summary_cmd; trace_filter_cmd; trace_replay_cmd ]

(* ---- the stream-subcommand surface (watch, serve, feed) ----

   One flag group and one exit-code table, consumed by all three
   subcommands instead of copy-pasted per command. *)

(* The unified exit-code table.  [Session.Wire.exit_code_of_reject]
   implements the same mapping for wire-level rejections. *)
let exit_code_man =
  [
    `S Manpage.s_exit_status;
    `P
      "The stream subcommands ($(b,watch), $(b,serve), $(b,feed)) share one exit-code \
       table: $(b,0) the stream completed and RDT held; $(b,1) the stream completed and \
       the final verdict is RDT violated; $(b,2) the stream is inconsistent (an event no \
       run could have produced, a stream ending mid-rollback-cascade, or a protocol error \
       on the serve socket); $(b,3) durable state is corrupt beyond every recovery \
       fallback, or the service is unreachable.";
  ]

(* --durable DIR / --snapshot-every K / --trace FILE, shared verbatim by
   watch and serve. *)
let session_flags_term =
  let durable_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "durable" ] ~docv:"DIR"
          ~doc:
            "Persist checker state under $(docv) (write-ahead log + snapshots) and \
             auto-resume from it on restart.  $(b,watch) keeps one session in $(docv); \
             $(b,serve) keeps one per stream in $(docv)/$(i,STREAM)/.")
  in
  let snapshot_every_arg =
    Arg.(
      value
      & opt int Rdt_durable.Session.default_config.Rdt_durable.Session.snapshot_every
      & info [ "snapshot-every" ] ~docv:"K"
          ~doc:"With $(b,--durable): install a snapshot generation every $(docv) events.")
  in
  Term.(
    const (fun durable snapshot_every trace -> (durable, snapshot_every, trace))
    $ durable_arg $ snapshot_every_arg $ trace_arg)

let inconsistent_exit e =
  Format.eprintf "rdtsim: inconsistent trace: %s@." e;
  exit 2

(* [watch] and [feed] both refuse a stream that leaves messages orphaned *)
let exit_if_mid_cascade = function
  | [] -> ()
  | orphans ->
      inconsistent_exit
        (Printf.sprintf "stream ends mid-rollback-cascade (orphaned messages %s)"
           (String.concat ", " (List.map string_of_int orphans)))

(* Drive one checker session over a recorded event list: skip the
   already-durable prefix, optionally pace (gives kill-mid-stream
   harnesses a window), exit 2 on an inconsistent event or a stream
   that ends mid-rollback-cascade.  Returns the final summary. *)
let drive_session sess events ~skip ~pace =
  let module O = Rdt_check.Online in
  if skip > List.length events then
    inconsistent_exit
      (Printf.sprintf "durable state covers %d events but the trace has only %d" skip
         (List.length events));
  List.iteri
    (fun i ev ->
      if i >= skip then begin
        pace_sleep pace;
        match Rdt_check.Session.observe sess ev with
        | Ok () -> ()
        | Error e -> inconsistent_exit e
      end)
    events;
  let engine = Rdt_check.Session.engine sess in
  exit_if_mid_cascade (O.orphan_messages engine);
  Rdt_check.Session.close sess;
  O.summary engine

let watch_cmd =
  let doc = "Stream events through the incremental online RDT checker." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "With $(i,FILE), streams a recorded JSONL trace (produced by $(b,--trace)) through \
         the incremental checker one event at a time: the engine maintains the R-graph, \
         per-checkpoint reachability and TDV-witness state online, retracts state across \
         $(b,rollback) events, and latches the index of the first event whose prefix \
         violated RDT.  Without $(i,FILE), simulates a run live with the checker tee'd \
         into the event stream.  The verdict goes to stdout; per-event cost goes to \
         stderr.  Exits 1 on a violated final verdict, 2 on an inconsistent trace.";
      `P
        "With $(b,--durable) $(i,DIR), checker state is persisted under $(i,DIR) as a \
         CRC-checked write-ahead log plus periodic snapshot generations, and the process \
         may be killed at any instant: rerunning the same command recovers the newest \
         valid state (degrading to an older snapshot generation, or a full WAL replay, if \
         the newest is damaged), resumes the stream where durability left off, and reaches \
         the verdict an uninterrupted run would have.  Recovery details go to stderr.  \
         Exits 3 when the durable state is corrupt beyond every fallback.";
    ]
  in
  let file_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"JSONL trace file to stream (default: simulate a live run).")
  in
  let pace_arg =
    Arg.(
      value
      & opt int 0
      & info [ "pace" ] ~docv:"MICROS"
          ~doc:
            "Sleep $(docv) microseconds between streamed events (gives kill-mid-stream \
             harnesses a window; 0 = full speed).")
  in
  let action w file (durable, snapshot_every, trace) pace =
    let module O = Rdt_check.Online in
    let finish ?dt (s : O.summary) =
      Format.printf "%a@." O.pp_summary s;
      (match dt with
      | Some dt when s.events > 0 ->
          Format.eprintf "streamed %d events in %.3f s (%.0f ns/event)@." s.events dt
            (1e9 *. dt /. float_of_int s.events)
      | _ -> ());
      if not s.rdt then exit 1
    in
    (match (trace, file) with
    | Some _, Some _ ->
        Format.eprintf "rdtsim: --trace records the live run; drop it when streaming FILE@.";
        exit Cmd.Exit.cli_error
    | _ -> ());
    match (durable, file) with
    | Some _, None ->
        Format.eprintf "rdtsim: --durable needs a trace FILE to stream@.";
        exit Cmd.Exit.cli_error
    | _, Some file -> (
        let events = load_trace file in
        match O.trace_process_count events with
        | Error e -> inconsistent_exit e
        | Ok n -> (
            try
              (* a durable session resumes past the prefix it already holds *)
              let sess, skip =
                match durable with
                | None -> (Rdt_check.Session.ephemeral ~n (), 0)
                | Some dir ->
                    let config = { Rdt_durable.Session.snapshot_every } in
                    let s, info = Rdt_durable.Session.open_ ~config ~dir ~n ~track_open:true () in
                    Option.iter
                      (Format.eprintf "rdtsim: recovered: %a@." Rdt_durable.Session.pp_recovery)
                      info;
                    ( Rdt_durable.Session.checker_session s,
                      O.events_seen (Rdt_durable.Session.engine s) )
              in
              let t0 = Rdt_obs.Meter.now () in
              let summary = drive_session sess events ~skip ~pace in
              finish ~dt:(Rdt_obs.Meter.now () -. t0) summary
            with Rdt_durable.Io.Error err ->
              Format.eprintf "rdtsim: unrecoverable durable state: %s@."
                (Rdt_durable.Io.error_message err);
              exit 3))
    | None, None ->
        with_trace trace ~mode:"watch" w (fun tr ->
            (* tee'd after the Meta header: the engine counts every event
               it observes, so [events] and [first_violation] index the
               run's own events *)
            let eng = O.create ~n:w.n () in
            let r = run_workload ~trace:(Rdt_obs.Trace.tee tr (O.observer eng)) w in
            print_metrics r;
            finish (O.summary eng))
  in
  Cmd.v
    (Cmd.info "watch" ~doc ~man:(man @ exit_code_man))
    Term.(const action $ workload_term $ file_arg $ session_flags_term $ pace_arg)

let serve_cmd =
  let doc = "Serve many concurrent trackability streams over a Unix socket." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs a long-lived daemon on a Unix-domain socket.  Each client opens a named \
         $(i,stream) (a $(b,hello) frame), appends trace events in length-delimited frames \
         of wire protocol version 2 (binary bodies; events as the WAL's records), and can at \
         any point query the live verdict: $(b,rdt-so-far), $(b,zcycle), \
         $(b,summary), $(b,trackable), and minimum/maximum consistent global checkpoints of \
         a set (Corollary 4.5 machinery).  One incremental online checker runs per stream; \
         busy streams are applied in bounded batches fanned out across $(b,--jobs) domains.";
      `P
        "Streams outlive connections: a client that disconnects reattaches by re-sending \
         $(b,hello) with the same stream name and is told how many events are already \
         applied.  With $(b,--durable) $(i,DIR), every stream is also persisted (WAL + \
         snapshots) under $(i,DIR)/$(i,STREAM)/, so a SIGKILL'd daemon resumes all streams \
         with identical verdicts on restart.  Ingest is backpressured: when a stream's \
         pending queue exceeds $(b,--max-pending), the daemon stops reading that client's \
         socket until the backlog drains — no frame is ever dropped.";
      `P "$(b,rdtsim feed) is the matching client.  Shut down with SIGINT/SIGTERM.";
    ]
  in
  let defaults = Rdt_serve.Server.default_config ~socket:"rdtsim.sock" in
  let socket_arg =
    Arg.(
      value & opt string defaults.socket
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path to listen on.")
  in
  let max_batch_arg =
    Arg.(
      value & opt int defaults.max_batch
      & info [ "max-batch" ] ~docv:"B"
          ~doc:"Maximum events applied per stream per loop iteration.")
  in
  let max_pending_arg =
    Arg.(
      value & opt int defaults.max_pending
      & info [ "max-pending" ] ~docv:"Q"
          ~doc:"Pending-queue bound per stream before ingest backpressure engages.")
  in
  let action socket (durable, snapshot_every, trace) jobs max_batch max_pending =
    let module Server = Rdt_serve.Server in
    let jobs = resolve_jobs jobs in
    let mapper =
      if jobs <= 1 then Server.seq_mapper
      else { Server.map = (fun f xs -> Rdt_harness.Pool.map ~jobs f xs) }
    in
    let stop_flag = ref false in
    Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop_flag := true));
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop_flag := true));
    let with_audit k =
      match trace with
      | None -> k Rdt_obs.Trace.null
      | Some file -> Out_channel.with_open_text file (fun oc -> k (Rdt_obs.Trace.to_channel oc))
    in
    with_audit (fun tr ->
        let cfg =
          {
            Server.socket;
            durable_root = durable;
            snapshot_every;
            max_batch;
            max_pending;
          }
        in
        match Server.create ~mapper ~trace:tr cfg with
        | server ->
            Format.eprintf "serve: listening on %s (%s, jobs=%d)@." socket
              (match durable with
              | Some dir -> Printf.sprintf "durable under %s" dir
              | None -> "ephemeral")
              jobs;
            Server.run ~stop:(fun () -> !stop_flag) server;
            let open_streams = Server.streams server in
            Server.close server;
            Format.eprintf "serve: shut down (%d stream%s still open)@."
              (List.length open_streams)
              (if List.length open_streams = 1 then "" else "s")
        | exception Unix.Unix_error (e, _, _) ->
            Format.eprintf "rdtsim: serve: cannot listen on %s: %s@." socket
              (Unix.error_message e);
            exit 3)
  in
  Cmd.v
    (Cmd.info "serve" ~doc ~man:(man @ exit_code_man))
    Term.(
      const action $ socket_arg $ session_flags_term $ jobs_arg $ max_batch_arg
      $ max_pending_arg)

let feed_cmd =
  let doc = "Stream a recorded trace to a running serve daemon and print the verdict." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "The client half of $(b,rdtsim serve): opens (or reattaches to) the named stream, \
         skips the prefix the daemon already holds, streams the rest of the trace in \
         batches of 128 events, and prints the daemon's final verdict to stdout in exactly \
         the format of $(b,rdtsim watch) $(i,FILE) — the two outputs diff clean for the same \
         trace.";
    ]
  in
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"JSONL trace file to stream.")
  in
  let socket_arg =
    Arg.(
      value & opt string "rdtsim.sock"
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket of the daemon.")
  in
  let stream_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "stream" ] ~docv:"NAME" ~doc:"Stream name to open or reattach to.")
  in
  let pace_arg =
    Arg.(
      value & opt int 0
      & info [ "pace" ] ~docv:"MICROS"
          ~doc:
            "Stream at most one event per $(docv) microseconds, as $(b,watch --pace) does \
             (gives kill-mid-stream harnesses a window; 0 = full speed).")
  in
  let ask_arg =
    Arg.(
      value
      & opt_all (enum [ ("rdt-so-far", `Rdt_so_far); ("zcycle", `Zcycle) ]) []
      & info [ "ask" ] ~docv:"QUERY"
          ~doc:
            "Also run a live query ($(b,rdt-so-far) or $(b,zcycle)) after the stream is \
             fed; the answer goes to stderr (repeatable).")
  in
  let action file socket stream pace asks =
    let module W = Rdt_check.Session.Wire in
    let module Client = Rdt_serve.Client in
    let events = load_trace file in
    let fail_reject code error =
      Format.eprintf "rdtsim: feed: %s@." error;
      exit (W.exit_code_of_reject code)
    in
    let fail_transport error =
      Format.eprintf "rdtsim: feed: %s@." error;
      exit 3
    in
    match Rdt_check.Online.trace_process_count events with
    | Error e -> inconsistent_exit e
    | Ok n -> (
        let c =
          match Client.connect ~socket with
          | c -> c
          | exception Unix.Unix_error (e, _, _) ->
              fail_transport
                (Printf.sprintf "cannot connect to %s: %s" socket (Unix.error_message e))
        in
        (* responses arrive interleaved with our writes: acks flow back
           per applied batch and must be drained or the daemon's reply
           buffer (and ours) only grows *)
        let handle_async = function
          | W.Ack _ -> ()
          | W.Rejected { code; error } -> fail_reject code error
          | _ -> fail_transport "unexpected response from server"
        in
        let rec wait_for pick =
          match Client.recv c with
          | Error e -> fail_transport e
          | Ok resp -> (
              match pick resp with
              | Some v -> v
              | None ->
                  handle_async resp;
                  wait_for pick)
        in
        try
          Client.send c (W.Hello { version = W.version; stream; n });
          let resumed =
          wait_for (function
            | W.Welcome { resumed; _ } -> Some resumed
            | _ -> None)
        in
        if resumed > 0 then
          Format.eprintf "rdtsim: feed: resuming %s at event %d@." stream resumed;
        if resumed > List.length events then
          inconsistent_exit
            (Printf.sprintf "stream %s already holds %d events but the trace has only %d"
               stream resumed (List.length events));
        let t0 = Rdt_obs.Meter.now () in
        (try
           List.iter
             (fun frame ->
               (* per event, like watch --pace, not per frame *)
               pace_sleep (pace * List.length frame);
               Client.send c (W.Events frame);
               List.iter handle_async (Client.poll c))
             (W.batches 128 (List.filteri (fun i _ -> i >= resumed) events))
         with Failure e -> fail_transport e);
        (* force durability of the whole stream before querying; the
           resulting ack is indistinguishable from batch acks and is
           drained silently — Goodbye carries the authoritative count *)
        Client.send c W.Sync;
        List.iteri
          (fun i ask ->
            let query = match ask with `Rdt_so_far -> W.Rdt_so_far | `Zcycle -> W.Zcycle in
            Client.send c (W.Query { id = i; query });
            match
              wait_for (function
                | W.Answer { answer; _ } -> Some (Ok answer)
                | W.Failed { error; _ } -> Some (Error error)
                | _ -> None)
            with
            | Ok (W.Flag b) ->
                Format.eprintf "%s: %b@."
                  (match ask with `Rdt_so_far -> "rdt so far" | `Zcycle -> "zcycle")
                  b
            | Ok _ -> fail_transport "unexpected answer shape"
            | Error e -> Format.eprintf "rdtsim: feed: query failed: %s@." e)
          asks;
        Client.send c W.Bye;
        let seen, summary, orphans =
          wait_for (function
            | W.Goodbye { seen; summary; orphans } -> Some (seen, summary, orphans)
            | _ -> None)
        in
        let dt = Rdt_obs.Meter.now () -. t0 in
        Client.close c;
        exit_if_mid_cascade orphans;
        Format.printf "%a@." Rdt_check.Online.pp_summary summary;
        if summary.events > 0 then
          Format.eprintf "fed %d events in %.3f s (%.0f ns/event, %d total on stream)@."
            (List.length events - resumed)
            dt
            (1e9 *. dt /. float_of_int (max 1 (List.length events - resumed)))
            seen;
        if not summary.rdt then exit 1
        with Unix.Unix_error (e, _, _) ->
          (* a daemon that died mid-conversation: same exit as the
             failed-to-connect case, not an uncaught-exception trace *)
          fail_transport
            (Printf.sprintf "connection to %s lost: %s" socket (Unix.error_message e)))
  in
  Cmd.v
    (Cmd.info "feed" ~doc ~man:(man @ exit_code_man))
    Term.(
      const action $ file_arg $ socket_arg $ stream_arg $ pace_arg $ ask_arg)

let fuzz_cmd =
  let doc = "Fuzz the whole stack with generated adversarial scenarios." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Generates $(b,--budget) scenarios — workload, protocol, channel model, network \
         faults (drops, duplicates, reordering, partitions, intermittent mobile-style \
         links) and crash/recovery schedules — each derived deterministically from \
         $(b,--seed) and its index, and executes every one with the online checker tee'd \
         into the live trace.  Each run is audited against the offline checkers, the \
         brute-force oracle (small runs), and a trace-replay round-trip; the first failing \
         scenario is shrunk to a 1-minimal counterexample and written out as a replayable \
         scenario plus its JSONL trace.";
      `P
        "The campaign is bit-identical across runs and across $(b,--jobs) values.  Exits 0 \
         when the budget is exhausted without a failure, 1 when a counterexample was found \
         (or $(b,--minimize) reproduced one), 2 on input errors.";
    ]
  in
  let budget_arg =
    Arg.(value & opt int 200 & info [ "budget" ] ~docv:"N" ~doc:"Scenarios to execute.")
  in
  let mutation_conv =
    let parse s = Result.map_error (fun e -> `Msg e) (Rdt_fuzz.Exec.mutation_of_string s) in
    let print ppf m = Format.pp_print_string ppf (Rdt_fuzz.Exec.mutation_name m) in
    Arg.conv (parse, print)
  in
  let mutate_arg =
    Arg.(
      value
      & opt (some mutation_conv) None
      & info [ "mutate" ] ~docv:"MUTATION"
          ~doc:
            "Sanctioned fault injection into the checking pipeline, for exercising the \
             find-then-shrink machinery on a healthy tree: $(b,hide-rollbacks) or \
             $(b,flip-rgraph).")
  in
  let out_arg =
    Arg.(
      value
      & opt string "fuzz-counterexample"
      & info [ "out" ] ~docv:"PREFIX"
          ~doc:"Write a found counterexample to $(docv).json and its trace to \
                $(docv).trace.jsonl.")
  in
  let minimize_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "minimize" ] ~docv:"FILE"
          ~doc:"Skip generation: load the scenario from $(docv), reproduce its failure and \
                shrink it.")
  in
  let print_failure (f : Rdt_fuzz.Fuzzer.failure) =
    Format.printf "counterexample (%s): %s@." (Rdt_fuzz.Exec.kind_name f.kind) f.detail;
    Format.printf "  original (size %4d): %a@." (Rdt_fuzz.Scenario.size f.original)
      Rdt_fuzz.Scenario.pp f.original;
    Format.printf "  shrunk   (size %4d): %a@." (Rdt_fuzz.Scenario.size f.shrunk)
      Rdt_fuzz.Scenario.pp f.shrunk;
    Format.printf "  shrink: %d accepted steps, %d executions@." f.shrink.steps f.shrink.execs
  in
  let write_counterexample ?mutation out (f : Rdt_fuzz.Fuzzer.failure) =
    Rdt_fuzz.Scenario.to_file (out ^ ".json") f.shrunk;
    let rep = Rdt_fuzz.Exec.run ?mutation f.shrunk in
    Out_channel.with_open_text (out ^ ".trace.jsonl") (fun oc ->
        List.iter
          (fun ev ->
            output_string oc (Rdt_obs.Trace.encode ev);
            output_char oc '\n')
          rep.Rdt_fuzz.Exec.events);
    Format.printf "scenario written to %s.json (replay: rdtsim fuzz --minimize %s.json%s)@." out
      out
      (match mutation with
      | None -> ""
      | Some m -> " --mutate " ^ Rdt_fuzz.Exec.mutation_name m);
    Format.printf "trace written to %s.trace.jsonl@." out
  in
  let action seed budget jobs mutation out minimize =
    let jobs = resolve_jobs jobs in
    match minimize with
    | Some file -> (
        match Rdt_fuzz.Scenario.of_file file with
        | Error e ->
            Format.eprintf "rdtsim: %s@." e;
            exit 2
        | Ok sc -> (
            match Rdt_fuzz.Fuzzer.minimize ?mutation sc with
            | Error e ->
                Format.printf "%s: %s@." file e;
                exit (if e = "scenario passes all checks; nothing to minimize" then 0 else 2)
            | Ok f ->
                print_failure f;
                write_counterexample ?mutation out f;
                exit 1))
    | None ->
        let cfg = { Rdt_fuzz.Fuzzer.seed; budget; mutation } in
        Format.printf "fuzz: seed=%d budget=%d protocols=%s envs=%s max-n=%d max-messages=%d@."
          seed budget
          (String.concat "," Rdt_fuzz.Scenario.protocols)
          (String.concat "," Rdt_fuzz.Scenario.envs)
          Rdt_fuzz.Scenario.max_n Rdt_fuzz.Scenario.max_messages;
        let t0 = Rdt_obs.Meter.now () in
        let mapper = { Rdt_fuzz.Fuzzer.map = (fun f xs -> Rdt_harness.Pool.map ~jobs f xs) } in
        let rep = Rdt_fuzz.Fuzzer.run ~mapper cfg in
        let dt = Rdt_obs.Meter.now () -. t0 in
        let c = rep.Rdt_fuzz.Fuzzer.counts in
        Format.printf
          "scenarios %d: ok %d, rdt-violations %d, checker-divergences %d, drain-failures %d, \
           crashes %d@."
          rep.Rdt_fuzz.Fuzzer.scenarios c.Rdt_fuzz.Fuzzer.ok c.Rdt_fuzz.Fuzzer.violations
          c.Rdt_fuzz.Fuzzer.divergences c.Rdt_fuzz.Fuzzer.drain_failures
          c.Rdt_fuzz.Fuzzer.crashes;
        if rep.Rdt_fuzz.Fuzzer.scenarios > 0 then
          Format.eprintf "executed %d scenarios in %.2f s (%.1f scenarios/s, jobs=%d)@."
            rep.Rdt_fuzz.Fuzzer.scenarios dt
            (float_of_int rep.Rdt_fuzz.Fuzzer.scenarios /. dt)
            jobs;
        match rep.Rdt_fuzz.Fuzzer.failure with
        | None ->
            Format.printf "no counterexample found (budget exhausted)@.";
            exit 0
        | Some f ->
            Format.printf "counterexample at scenario #%d@." f.Rdt_fuzz.Fuzzer.index;
            print_failure f;
            write_counterexample ?mutation out f;
            exit 1
  in
  Cmd.v (Cmd.info "fuzz" ~doc ~man)
    Term.(
      const action $ seed_arg $ budget_arg $ jobs_arg $ mutate_arg $ out_arg $ minimize_arg)

let list_cmd =
  let doc = "List available protocols and environments." in
  let action () =
    Format.printf "Protocols:@.";
    List.iter
      (fun p ->
        Format.printf "  %-9s %s%s@." (Rdt_core.Protocol.name p) (Rdt_core.Protocol.describe p)
          (if Rdt_core.Protocol.ensures_rdt p then "" else "  [no RDT guarantee]"))
      Rdt_core.Registry.all;
    Format.printf "@.Environments:@.";
    List.iter
      (fun (name, descr, _) -> Format.printf "  %-14s %s@." name descr)
      Rdt_workloads.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const action $ const ())

let scale_cmd =
  let doc = "Run the sharded n = 10^4-class engine and print its deterministic result." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the ring workload on the sharded event core ($(b,Rdt_harness.Scale)) under \
         NRAS (a forced checkpoint before any delivery that follows a send in the same \
         interval), piggybacking a sparse dependency vector on every message, and prints the run's deterministic fields — counters, final \
         time and the checksum over every final dependency vector — to stdout.  The shard \
         partition is a function of $(b,-n) alone and cross-shard merges are ordered by a \
         seed-derived tiebreak, so stdout is byte-identical for every $(b,--jobs) value: diff \
         two runs to audit the engine.  Wall-clock timing goes to stderr, keeping stdout \
         diffable.";
    ]
  in
  let n_arg =
    Arg.(value & opt int 10_000 & info [ "n" ] ~docv:"N" ~doc:"Number of processes (>= 2).")
  in
  let messages_arg =
    Arg.(
      value & opt int 1_000_000
      & info [ "messages" ] ~docv:"M" ~doc:"Total messages sent across the run.")
  in
  let seed_scale_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Root seed of the run.")
  in
  let action n messages seed jobs =
    let jobs = resolve_jobs jobs in
    let params = { Rdt_harness.Scale.n; messages; seed } in
    (match Rdt_harness.Scale.validate_params params with
    | Ok () -> ()
    | Error m -> invalid_arg ("Cli: " ^ m));
    let t0 = Rdt_obs.Meter.now () in
    let r = Rdt_harness.Scale.run ~jobs params in
    let dt = Rdt_obs.Meter.now () -. t0 in
    Format.printf "%a@." Rdt_harness.Scale.pp_result r;
    Format.eprintf "wall: %.3fs (%.0f events/s, jobs=%d)@." dt
      (float_of_int r.Rdt_harness.Scale.events /. Float.max 1e-9 dt)
      jobs
  in
  Cmd.v
    (Cmd.info "scale" ~doc ~man)
    Term.(const action $ n_arg $ messages_arg $ seed_scale_arg $ jobs_arg)

let main =
  let doc = "communication-induced checkpointing with rollback-dependency trackability" in
  Cmd.group
    (Cmd.info "rdtsim" ~version:"1.0.0" ~doc)
    [
      run_cmd; verify_cmd; experiments_cmd; table_cmd; recover_cmd; snapshot_cmd; twophase_cmd;
      crashrun_cmd; trace_cmd; watch_cmd; serve_cmd; feed_cmd; fuzz_cmd; scale_cmd; list_cmd;
    ]

let () =
  (* config validation (fault specs, transport params, delay models) raises
     Invalid_argument — render it as a user error, not an internal one *)
  try exit (Cmd.eval ~catch:false main)
  with Invalid_argument msg ->
    Format.eprintf "rdtsim: %s@." msg;
    exit Cmd.Exit.cli_error
