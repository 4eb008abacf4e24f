(* simulate: the paper's reproduction and [verify] path.  A fixed list
   of runs, {fdas, bhmr} x {random, group, client-server} at n = 16, each
   one [Runtime.run] plus one offline [Checker.run] (default R-graph
   algorithm).  Loads the event engine, the protocol step and
   [Rdt_pattern]; bypasses Online, the codecs, durability and serving. *)

module R = Rdt_core.Runtime

type entry = { protocol : string; env : string; seed : int }

let protocols = [ "fdas"; "bhmr" ]
let envs = [ "random"; "group"; "client-server" ]

let entries (size : Inputs.size) ~seed =
  List.concat_map
    (fun protocol ->
      List.concat_map
        (fun env ->
          List.init size.sim_seeds (fun k ->
              let label = Printf.sprintf "perfbench.simulate.%s.%s.%d" protocol env k in
              { protocol; env; seed = Rdt_dist.Rng.derive_seed seed label }))
        envs)
    protocols

let config (size : Inputs.size) e =
  R.configure ~n:Inputs.n ~seed:e.seed ~messages:size.sim_messages
    (Rdt_workloads.Registry.find_exn e.env)
    (Rdt_core.Registry.find_exn e.protocol)

let pattern_events pat =
  let total = ref 0 in
  for p = 0 to Rdt_pattern.Pattern.n pat - 1 do
    total := !total + Array.length (Rdt_pattern.Pattern.events pat p)
  done;
  !total

type state = { list : entry list; forced : int array  (** reference forced counts *) }

(* Set-up: the run list and one untimed [Runtime.run] per entry, whose
   forced-checkpoint counts every timed run must repeat exactly. *)
let setup size ~seed =
  let list = entries size ~seed in
  { list; forced = Array.of_list (List.map (fun e -> (R.run (config size e)).metrics.forced) list) }

type rep = { samples : float list; events : int; checked : int; wall : float; cpu : float; alloc : float }

(* One repetition over the whole list.  With [spans] on, each run's two
   layers are recorded and the runtime's allocation is counted. *)
let rep ?(spans = Span.off) size st tally =
  let self = Unix.getpid () in
  let c0 = Inputs.cpu_s self in
  let t0 = Rdt_obs.Meter.now () in
  let events = ref 0 and checked = ref 0 and alloc = ref 0. in
  let samples =
    List.mapi
      (fun i e ->
        let s0 = Rdt_obs.Meter.now () in
        Span.with_ spans "simulate.run" (fun () ->
            match
              let a0 = if spans.Span.on then Inputs.alloc_words () else 0. in
              let r = Span.with_ spans "runtime.run" (fun () -> R.run (config size e)) in
              if spans.Span.on then alloc := !alloc +. Inputs.alloc_words () -. a0;
              (r, Span.with_ spans "checker.run" (fun () -> Rdt_core.Checker.run r.pattern))
            with
            | r, report ->
                Stats.attempt tally ~ok:true;
                Report.gate
                  (report.rdt = Report.expected_rdt ())
                  "simulate: %s/%s seed %d: offline verdict differs from the expected RDT" e.protocol
                  e.env e.seed;
                Report.gate
                  (r.metrics.forced = st.forced.(i))
                  "simulate: %s/%s seed %d: %d forced checkpoints, the reference run took %d"
                  e.protocol e.env e.seed r.metrics.forced st.forced.(i);
                events := !events + pattern_events r.pattern;
                checked := !checked + report.checked
            | exception ((Failure _ | Invalid_argument _ | Not_found) as exn) ->
                Stats.attempt tally ~ok:false;
                raise
                  (Report.Gate
                     (Printf.sprintf "simulate: %s/%s seed %d raised %s" e.protocol e.env e.seed
                        (Printexc.to_string exn))));
        Rdt_obs.Meter.now () -. s0)
      st.list
  in
  let wall = Rdt_obs.Meter.now () -. t0 in
  { samples; events = !events; checked = !checked; wall; cpu = Inputs.cpu_s self -. c0; alloc = !alloc }

let run size ~seed ~seconds =
  let st, setup_s, wall_setup_s =
    Report.setups ~times:size.Inputs.setups ~teardown:ignore (fun () -> setup size ~seed)
  in
  Printf.printf "input simulate: %d runs, %d forced checkpoints in the reference pass\n"
    (List.length st.list)
    (Array.fold_left ( + ) 0 st.forced);
  let tally = Stats.tally () and self = Unix.getpid () in
  let reps =
    Report.repeat ~seconds (fun _ ->
        Inputs.reset_peak_rss ();
        let r = rep size st tally in
        (r, Inputs.peak_rss_mb self))
  in
  Report.outcome ~setup:(setup_s, wall_setup_s) ~in_process:true ~op:"one run plus its offline verify"
    ~work:"simulated events"
    ~rss:"benchmark process VmHWM" tally
    (List.map
       (fun (((r : rep), rss), factor) ->
         { Report.ops = r.samples; events = r.events; wall = r.wall; cpu = r.cpu; rss; factor })
       reps)

(* Traced layer pass: one repetition with the runtime and checker
   boundaries recorded, the runtime's own meter spans read around it. *)
let layers size ~seed spans tally =
  let st = setup size ~seed in
  let sim0 = Report.meter_span "runtime.sim" and pat0 = Report.meter_span "runtime.pattern" in
  let forced0 = Report.meter_count "runtime.forced_ckpts" in
  let r = rep ~spans size st tally in
  let total = Span.totals spans in
  let secs name = let _, s, _ = total name in s in
  let delta (_, a) (_, b) = b -. a in
  let events = float_of_int r.events in
  let forced = Report.meter_count "runtime.forced_ckpts" - forced0 in
  ( Stats.median r.samples,
    [
      Report.metric "runtime.run_s" "s" (secs "runtime.run");
      Report.metric "runtime.sim_s" "s" (delta sim0 (Report.meter_span "runtime.sim"));
      Report.metric "runtime.pattern_s" "s" (delta pat0 (Report.meter_span "runtime.pattern"));
      Report.metric "runtime.events" "count" events;
      Report.metric "runtime.forced_ckpts" "count" (float_of_int forced);
      Report.metric "runtime.alloc_words_per_event" "words/event" (r.alloc /. events);
      Report.metric "checker.run_s" "s" (secs "checker.run");
      Report.metric "checker.checked" "count" (float_of_int r.checked);
    ] )
