module Runtime = Rdt_core.Runtime
module Protocol = Rdt_core.Protocol
module Channel = Rdt_dist.Channel
module Faults = Rdt_dist.Faults
module Transport = Rdt_dist.Transport

type workload = {
  name : string;
  make_env : unit -> Rdt_dist.Env.t;
  n : int;
  channel : Channel.spec;
  basic_period : int * int;
  max_messages : int;
  faults : Faults.spec;
  transport : Transport.params option;
}

let workload ?(n = 8) ?(max_messages = 2000) ?(channel = Channel.Uniform (5, 100))
    ?(basic_period = (300, 700)) ?(faults = Faults.none) ?transport ?make_env name =
  let make_env =
    match make_env with
    | Some f -> f
    | None ->
        (* validate the name eagerly so misspellings fail at construction *)
        ignore (Rdt_workloads.Registry.find_exn name);
        fun () -> Rdt_workloads.Registry.find_exn name
  in
  let transport =
    (* faults need a transport to recover reliable delivery; supply the
       defaults when the caller asked for faults but gave no params *)
    match transport with
    | Some _ as t -> t
    | None -> if Faults.is_none faults then None else Some Transport.default_params
  in
  { name; make_env; n; channel; basic_period; max_messages; faults; transport }

let run_once w protocol ~seed =
  Runtime.run
    (Runtime.configure ~n:w.n ~seed ~messages:w.max_messages ~channel:w.channel
       ~basic_period:w.basic_period ~faults:w.faults ?transport:w.transport (w.make_env ())
       protocol)

let verify_rdt (r : Runtime.result) = (Rdt_core.Checker.run r.Runtime.pattern).Rdt_core.Checker.rdt

type aggregate = {
  forced : Stats.t;
  basic : Stats.t;
  messages : Stats.t;
  forced_per_basic : Stats.t;
  forced_per_message : Stats.t;
}

let aggregate w protocol ~seeds =
  let agg =
    {
      forced = Stats.create ();
      basic = Stats.create ();
      messages = Stats.create ();
      forced_per_basic = Stats.create ();
      forced_per_message = Stats.create ();
    }
  in
  List.iter
    (fun seed ->
      let r = run_once w protocol ~seed in
      let m = r.Runtime.metrics in
      Stats.add agg.forced (float_of_int m.Rdt_core.Metrics.forced);
      Stats.add agg.basic (float_of_int m.Rdt_core.Metrics.basic);
      Stats.add agg.messages (float_of_int m.Rdt_core.Metrics.messages);
      Stats.add agg.forced_per_basic (Rdt_core.Metrics.forced_per_basic m);
      Stats.add agg.forced_per_message (Rdt_core.Metrics.forced_per_message m))
    seeds;
  agg

let forced_ratio (r : Runtime.result) (baseline : Runtime.result) =
  let f = r.metrics.Rdt_core.Metrics.forced and fb = baseline.metrics.Rdt_core.Metrics.forced in
  if fb > 0 then Some (float_of_int f /. float_of_int fb) else None

let ratio_vs_baseline w protocol ~baseline ~seeds =
  let stats = Stats.create () in
  List.iter
    (fun seed ->
      let rp = run_once w protocol ~seed in
      Option.iter (Stats.add stats) (forced_ratio rp (run_once w baseline ~seed)))
    seeds;
  stats

let default_seeds = List.init 10 (fun i -> i + 1)

let quick_seeds = [ 1; 2; 3 ]

let cell_seed path seed = Rdt_dist.Rng.derive_seed seed (String.concat "/" path)
