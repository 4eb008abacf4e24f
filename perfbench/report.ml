(* What one run prints: every metric by name, value, unit and sample
   count, then one JSON object as the last line of standard output. *)

type metric = { name : string; unit_ : string; value : float; samples : int; what : string }

let metric ?(samples = 1) ?(what = "") name unit_ value = { name; unit_; value; samples; what }

(* A failed correctness gate: the run prints no result and exits 1. *)
exception Gate of string

(* The negative self-test: expect the opposite RDT verdict everywhere,
   which every correct program must then fail. *)
let wrong_oracle = ref false

let expected_rdt () = not !wrong_oracle

let expected (s : Rdt_check.Online.summary) =
  if !wrong_oracle then { s with rdt = not s.rdt } else s

let gate cond fmt = Printf.ksprintf (fun msg -> if not cond then raise (Gate msg)) fmt

(* The summary oracle of a trace: serial [Online.check_trace] of its
   events, forced after the timed phase. *)
let expected_summary label events =
  lazy
    (match Rdt_check.Online.check_trace events with
    | Ok eng -> expected (Rdt_check.Online.summary eng)
    | Error e -> raise (Gate (Printf.sprintf "%s: oracle rejected the trace: %s" label e)))

type outcome = {
  metrics : metric list;  (** the metrics the JSON line carries *)
  extra : metric list;  (** printed for the reader only *)
  tally : Stats.tally;
}

let print_metric m =
  Printf.printf "  %-32s %14.6g %-9s n=%-6d %s\n" m.name m.value m.unit_ m.samples m.what

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json o =
  let field m = Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (number m.value) m.unit_ in
  Printf.sprintf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.tally.Stats.attempted o.tally.Stats.failed
    (String.concat ", " (List.map field o.metrics))

let print ~title o =
  Printf.printf "%s\n" title;
  List.iter print_metric o.metrics;
  if o.extra <> [] then begin
    Printf.printf "also measured:\n";
    List.iter print_metric o.extra
  end;
  Printf.printf "  %-32s %14.6g %-9s n=%-6d failed %d of %d attempted\n" "failed_ratio"
    (Stats.failed_ratio o.tally) "ratio" o.tally.Stats.attempted o.tally.Stats.failed
    o.tally.Stats.attempted;
  List.iter
    (fun m ->
      if not (Float.is_finite m.value) then
        raise (Gate (Printf.sprintf "metric %s is not a finite number" m.name)))
    o.metrics;
  print_endline (json o)

(* The median over repetitions of one fixed input of a per-repetition
   statistic of its latencies, in ms. *)
let over_reps name ~what ~stat (reps : float list list) =
  let per = List.map (fun r -> 1e3 *. stat r) reps in
  metric name "ms" ~samples:(List.length (List.concat reps))
    ~what:
      (Printf.sprintf "%s, median of %d reps (each %.4g..%.4g)" what (List.length reps)
         (List.fold_left Float.min infinity per)
         (List.fold_left Float.max 0. per))
    (Stats.median per)

(* The mean latency of the fixed input's ops, each op's latency taken
   as its median over the repetitions, in ms.  Every repetition lists
   the same ops in the same order.  A stall that hits an op in a few
   repetitions does not move it, and the ops weigh equally wherever
   their latencies fall. *)
let op_mean name ~what (reps : float list list) =
  let ops = List.length (List.hd reps) in
  if List.exists (fun r -> List.length r <> ops) reps then
    raise (Gate (Printf.sprintf "%s: repetitions of one input timed different numbers of ops" what));
  let per_op = Array.make_matrix ops (List.length reps) 0. in
  List.iteri (fun j r -> List.iteri (fun i x -> per_op.(i).(j) <- x) r) reps;
  metric name "ms" ~samples:(ops * List.length reps)
    ~what:(Printf.sprintf "%s: mean over %d ops of each one's median over %d reps" what ops (List.length reps))
    (1e3 *. Stats.mean (Array.to_list (Array.map (fun a -> Stats.median (Array.to_list a)) per_op)))

(* A latency pair: the p50 over repetitions, and the tail of every
   repetition's samples pooled. *)
let latency ~p50 ~tail ~what (reps : float list list) =
  let per_rep = List.fold_left (fun acc r -> min acc (List.length r)) max_int reps in
  let pooled = List.concat reps in
  match Stats.pooled_tail ~per_rep pooled with
  | None -> raise (Gate (Printf.sprintf "%s: %d samples per repetition, the tail needs more" what per_rep))
  | Some t ->
      ( over_reps p50 ~what:(what ^ ": p50") ~stat:Stats.median reps,
        metric tail "ms" ~samples:(List.length pooled)
          ~what:(Printf.sprintf "%s: p%.1f (%d per rep, 10 beyond)" what t.pct per_rep)
          (1e3 *. t.value) )

(* Work per unit of time: the median over the repetitions. *)
let rate name unit_ ~what work_time =
  let rates = List.map (fun (work, time) -> work /. time) work_time in
  metric name unit_ ~samples:(List.length work_time)
    ~what:
      (Printf.sprintf "%s, median of reps (each %.4g..%.4g)" what
         (List.fold_left Float.min infinity rates)
         (List.fold_left Float.max 0. rates))
    (Stats.median rates)

(* One measured repetition, as every workload reports it. *)
type rep = {
  ops : float list;  (** op latencies, wall seconds *)
  events : int;
  wall : float;
  cpu : float;  (** CPU seconds of the process doing the work *)
  rss : float;  (** its peak RSS over the repetition, MiB *)
  factor : float;  (** [Speed.factor] around the repetition *)
}

(* A workload's result.  The gated metrics, in the order BENCHMARK.json
   lists them: [setup_s], events per CPU-second, the mean op latency
   ([op_mean]) and the peak RSS, the last two over all repetitions.
   Printed beside them: the op p50 and tail, the wall-clock figures, the
   machine's speed and [extra].  The op latencies of one repetition
   climb with the stream in serve-query, so their p50 rests on the few
   samples mid-climb; the mean rests on all of them and is the steadier
   figure.

   [in_process] says the work ran in this process, right after and
   before the [Speed] samples that bracket each repetition: its op and
   CPU times are then scaled to reference speed.  Work done in the serve
   daemon is not scaled: the daemon's process runs elsewhere, and there
   the samples were measured not to track its speed. *)
let outcome ~setup:(setup, wall_setup) ~in_process ~op ~work ~rss ?(extra = []) tally (reps : rep list) =
  let rss_mb = List.map (fun r -> r.rss) reps in
  let scale r = if in_process then r.factor else 1. in
  let at = if in_process then ", at reference speed" else ", wall" in
  let scaled = List.map (fun r -> List.map (fun x -> x *. scale r) r.ops) reps in
  let p50, tail = latency ~p50:"op_p50_ms" ~tail:"op_tail_ms" ~what:(op ^ at) scaled in
  let wall_ops =
    if not in_process then []
    else
      let ops = List.map (fun r -> r.ops) reps in
      [
        op_mean "wall.op_mean_ms" ~what:(op ^ ", wall") ops;
        over_reps "wall.op_p50_ms" ~what:(op ^ ", wall: p50") ~stat:Stats.median ops;
      ]
  in
  let kernel_ms = List.map (fun r -> 1e3 *. Speed.nominal /. r.factor) reps in
  {
    metrics =
      [
        setup;
        rate "events_per_cpu_s" "events/s" ~what:(work ^ " / its CPU time" ^ at)
          (List.map (fun r -> (float_of_int r.events, r.cpu *. scale r)) reps);
        op_mean "op_mean_ms" ~what:(op ^ at) scaled;
        metric "peak_rss_mb" "MiB" ~samples:(List.length reps)
          ~what:
            (Printf.sprintf "%s, peak over each rep, median of reps (each %.4g..%.4g)" rss
               (List.fold_left Float.min infinity rss_mb)
               (List.fold_left Float.max 0. rss_mb))
          (Stats.median rss_mb);
      ];
    extra =
      (p50 :: tail
       :: rate "wall.events_per_s" "events/s" ~what:(work ^ " / wall")
            (List.map (fun r -> (float_of_int r.events, r.wall)) reps)
       :: wall_ops)
      @ [
          wall_setup;
          metric "speed.kernel_ms" "ms" ~samples:(List.length reps)
            ~what:
              (Printf.sprintf "reference computation, median over reps (each %.4g..%.4g; reference %g)"
                 (List.fold_left Float.min infinity kernel_ms)
                 (List.fold_left Float.max 0. kernel_ms)
                 (1e3 *. Speed.nominal))
            (Stats.median kernel_ms);
        ]
      @ extra;
    tally;
  }

(* Repeat a fixed-size repetition for about [seconds] after a warm-up
   repetition: the next one starts only if it is expected to end in
   time, and there is always at least one.  A faster commit fits more
   repetitions of the same input; it never measures a different input.
   Each repetition comes with the [Speed.factor] of the samples taken
   right before and after it. *)
let repeat ~seconds f =
  (* one untimed warm-up repetition (index -1) lets the heap grow and
     the caches fill first *)
  ignore (f (-1));
  let t0 = Rdt_obs.Meter.now () in
  let rec go acc before last =
    let elapsed = Rdt_obs.Meter.now () -. t0 in
    if acc <> [] && elapsed +. last > seconds then List.rev acc
    else begin
      let r0 = Rdt_obs.Meter.now () in
      let r = f (List.length acc) in
      let after = Speed.sample () in
      go ((r, Speed.factor ~before ~after) :: acc) after (Rdt_obs.Meter.now () -. r0)
    end
  in
  go [] (Speed.sample ()) 0.

(* Set up [times] times; the last set-up is kept, the others are torn
   down.  Returns it with [setup_s], the median set-up time at reference
   speed, and the median wall time beside it. *)
let setups ~times ~teardown f =
  let rec go k acc =
    let before = Speed.sample () in
    let t0 = Rdt_obs.Meter.now () in
    let s = f () in
    let wall = Rdt_obs.Meter.now () -. t0 in
    let acc = (wall, wall *. Speed.factor ~before ~after:(Speed.sample ())) :: acc in
    if k + 1 < times then begin
      teardown s;
      go (k + 1) acc
    end
    else (s, acc)
  in
  let s, times_s = go 0 [] in
  let n = List.length times_s in
  ( s,
    metric "setup_s" "s" ~samples:n ~what:"median set-up, at reference speed"
      (Stats.median (List.map snd times_s)),
    metric "wall.setup_s" "s" ~samples:n ~what:"median set-up, wall" (Stats.median (List.map fst times_s)) )

(* Cumulative readings of the library's own meter. *)
let meter_span name =
  match List.assoc_opt name (Rdt_obs.Meter.spans Rdt_obs.Meter.default) with
  | Some s -> (s.Rdt_obs.Meter.calls, s.Rdt_obs.Meter.seconds)
  | None -> (0, 0.)

let meter_count name =
  Option.value (List.assoc_opt name (Rdt_obs.Meter.counters Rdt_obs.Meter.default)) ~default:0
