(* The traced run: one layer pass over every workload's inputs, so each
   per-layer metric is measured on the same inputs the end-to-end runs
   use, whichever workload is named.  The named workload also gets one
   untraced repetition, and the difference between its traced and
   untraced op p50 is reported as the tracing overhead. *)

let untraced_p50 workload (size : Inputs.size) ~seed ~rdtsim ~dir tally =
  let with_binary inputs f =
    let socket = Filename.concat dir "untraced.sock" in
    let st, d = Serve_load.setup (Serve_load.Binary rdtsim) ~socket inputs in
    Fun.protect
      ~finally:(fun () -> Daemon.stop d)
      (fun () -> Serve_load.transport_gate (fun () -> f st socket))
  in
  match workload with
  | `Simulate ->
      let st = Simulate.setup size ~seed in
      Stats.median (Simulate.rep size st tally).samples
  | `Watch ->
      let st = Watch.setup size ~seed ~dir in
      Stats.median (Watch.rep st ~dir tally).samples
  | `Ingest ->
      with_binary
        (fun () -> Serve_load.ingest_inputs size ~seed)
        (fun st socket -> Stats.median (Serve_load.ingest_rep ~socket ~rep:0 st.streams tally).samples)
  | `Query ->
      with_binary
        (fun () -> Serve_load.query_inputs size ~seed)
        (fun st socket ->
          let r = Serve_load.query_rep ~socket ~rep:0 ~rate:size.query_rate st.qframes st.rounds tally in
          Stats.median r.gcp)

let run workload size ~seed ~rdtsim ~dir ~spans_file tally =
  let spans = Span.create ~on:true in
  let t0 = Rdt_obs.Meter.now () in
  let sim_p50, sim = Simulate.layers size ~seed spans tally in
  let watch_p50, watch = Watch.layers size ~seed ~dir spans tally in
  let ingest_p50, query_p50, serve = Serve_load.layers size ~seed ~dir spans tally in
  let traced_s = Rdt_obs.Meter.now () -. t0 in
  let traced =
    match workload with
    | `Simulate -> sim_p50
    | `Watch -> watch_p50
    | `Ingest -> ingest_p50
    | `Query -> query_p50
  in
  let untraced = untraced_p50 workload size ~seed ~rdtsim ~dir tally in
  Span.dump spans spans_file;
  Printf.printf "spans: %d written to %s\n" (List.length (Span.spans spans)) spans_file;
  sim @ watch @ serve
  @ [
      Report.metric "trace.layer_pass_s" "s" traced_s;
      Report.metric "trace.overhead_pct" "%"
        ~what:"op p50 of the traced repetition over an untraced one"
        (100. *. (traced -. untraced) /. untraced);
    ]
