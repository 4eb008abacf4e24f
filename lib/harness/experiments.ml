module Registry = Rdt_core.Registry
module Runtime = Rdt_core.Runtime
module Coordinated = Rdt_coordinated.Coordinated

type point = { x : float; stats : Stats.t }

type series = { label : string; points : point list }

type figure = { xlabel : string; series : series list }

type ctx = { jobs : int option; report : Bench_report.t option; seeds : int list; quick : bool }

type output = Figure of figure | Table of Table.t | Claim of (string * float) list

type entry = {
  id : string;
  title : quick:bool -> string;
  name : string option;
  few_seeds : bool;
  run : ctx -> output;
}

let fdas = Registry.find_exn "fdas"

let variants = [ "bhmr"; "bhmr-v1"; "bhmr-v2" ]

let env = Rdt_workloads.Registry.find_exn

let tabulate header rows =
  let t = Table.create ~header in
  List.iter (Table.add_row t) rows;
  t

let print_figure f =
  let rows =
    match f.series with
    | [] -> []
    | first :: _ ->
        List.mapi
          (fun i p ->
            Printf.sprintf "%g" p.x
            :: List.concat_map
                 (fun s ->
                   let p = List.nth s.points i in
                   [
                     Table.cell_f (Stats.mean p.stats);
                     Table.cell_f (Stats.ci95_half_width p.stats);
                   ])
                 f.series)
          first.points
  in
  Table.print (tabulate (f.xlabel :: List.concat_map (fun s -> [ s.label; "±" ]) f.series) rows)

(* ------------------------------------------------------------------ *)
(* The grid layer                                                      *)
(*                                                                     *)
(* Every figure/table below is decomposed into a flat list of          *)
(* independent cells — one (key, seed) pair each — run through the     *)
(* Pool and folded back in deterministic cell order.  A cell derives    *)
(* its RNG seed from its own coordinates alone (Experiment.cell_seed),  *)
(* so the produced tables are bit-identical for every --jobs value.    *)
(* Cells that must stay paired (a protocol against its baseline,       *)
(* faulty against reliable) share one seed path and perform both runs  *)
(* inside the cell.                                                    *)
(* ------------------------------------------------------------------ *)

(* Run [f key seed] for every (key x seed) cell through the pool and
   return each key with its per-seed results.  Cells of one key stay
   contiguous, in key order; that is also the order the report records
   them in, each under the (protocol, env) [coords] names for its key and
   its base seed.  [f] must be self-contained (it runs on a worker
   domain). *)
let grid c ~table ~coords keys f =
  let cells = List.concat_map (fun key -> List.map (fun seed -> (key, seed)) c.seeds) keys in
  let timed = Pool.map_timed ?jobs:c.jobs (fun (key, seed) -> f key seed) cells in
  Option.iter
    (fun r ->
      List.iter2
        (fun (key, seed) (_, seconds) ->
          let protocol, env = coords key in
          Bench_report.add r ~table ~protocol ~env ~seed ~seconds)
        cells timed)
    c.report;
  let results = Array.of_list (List.map fst timed) and k = List.length c.seeds in
  List.mapi (fun i key -> (key, List.init k (fun j -> results.((i * k) + j)))) keys

let stats_of_some xs = Stats.of_list (List.filter_map Fun.id xs)

let mean_of f xs = Stats.mean (Stats.of_list (List.map f xs))

(* The per-seed tables: each column is a header and a formatter over one
   key's per-seed values, and each key is a row under its label. *)
let column_rows cells per_key =
  List.map (fun (label, per_seed) -> label :: List.map (fun cell -> cell per_seed) cells) per_key

let column_table key columns per_key =
  Table (tabulate (key :: List.map fst columns) (column_rows (List.map snd columns) per_key))

let mean f per_seed = Table.cell_f (mean_of f per_seed)

let mean_pct f per_seed = Table.cell_pct (mean_of f per_seed)

(* A workload is a [Runtime.config] whose protocol every cell replaces. *)
let workload ?(n = 8) ?(messages = 1500) ?basic_period ?faults ?transport e =
  Runtime.configure ~n ~messages ?basic_period ?faults ?transport e fdas

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

(* R against fdas for every BHMR variant, one point per x.  Both runs of
   a ratio share one cell, on the seed derived from (figure, x) —
   identical for every series of the figure, so series stay comparable
   run to run. *)
let ratio_figure c ~id ~xlabel ~xs workload_of =
  let series label =
    let protocol = Registry.find_exn label in
    let per_x =
      grid c ~table:id xs
        ~coords:(fun x -> (label, Printf.sprintf "x=%g" x))
        (fun x seed ->
          let w = workload_of x in
          let seed = Experiment.cell_seed [ id; Printf.sprintf "x=%g" x ] seed in
          let r = Runtime.run { w with protocol; seed } in
          Experiment.forced_ratio r (Runtime.run { w with protocol = fdas; seed }))
    in
    { label; points = List.map (fun (x, rs) -> { x; stats = stats_of_some rs }) per_x }
  in
  Figure { xlabel; series = List.map series variants }

(* FIG-RANDOM: R vs number of processes in the general (uniform random)
   environment, for bhmr, bhmr-v1, bhmr-v2. *)
let fig_random c =
  ratio_figure c ~id:"FIG-RANDOM" ~xlabel:"n" ~xs:[ 2.0; 4.0; 8.0; 16.0; 32.0 ] (fun x ->
      workload ~n:(int_of_float x) (env "random"))

(* FIG-8: R vs group size in overlapping group communication
   environments (n = 12). *)
let fig_group c =
  ratio_figure c ~id:"FIG-8" ~xlabel:"group size" ~xs:[ 2.0; 3.0; 4.0; 6.0 ] (fun x ->
      let params =
        { Rdt_workloads.Group_env.default_group_params with group_size = int_of_float x }
      in
      workload ~n:12 (Rdt_workloads.Group_env.make ~params ()))

(* FIG-9: R vs number of servers in the client-server chain. *)
let fig_client_server c =
  ratio_figure c ~id:"FIG-9" ~xlabel:"n servers" ~xs:[ 2.0; 4.0; 8.0; 16.0 ] (fun x ->
      workload ~n:(int_of_float x) (env "client-server"))

let lost_work_fraction pat =
  (* crash process 0 at 60% of the run: restart from its last durable
     checkpoint before that instant *)
  let duration =
    Rdt_pattern.Pattern.fold_ckpts pat ~init:0 ~f:(fun acc c ->
        max acc c.Rdt_pattern.Types.time)
  in
  let outcome =
    Rdt_recovery.Recovery_line.(recover pat [ crash_at pat 0 ~time:(duration * 6 / 10) ])
  in
  let lost =
    Array.fold_left ( + ) 0 outcome.Rdt_recovery.Recovery_line.lost_events
  in
  let total =
    let t = ref 0 in
    for i = 0 to Rdt_pattern.Pattern.n pat - 1 do
      t := !t + Array.length (Rdt_pattern.Pattern.events pat i)
    done;
    !t
  in
  float_of_int lost /. float_of_int (max 1 total)

(* FIG-LOST-WORK (extension): fraction of all executed events undone by
   a crash of process 0 at 60% of the run, as a function of the mean
   basic-checkpoint period, for [none], [bcs] and [bhmr] (random
   workload, n = 6).  Uncoordinated checkpointing wastes its checkpoints
   (the recovery line ignores them); the protocols keep lost work
   proportional to the checkpoint period. *)
let fig_lost_work c =
  let id = "FIG-LOST-WORK" in
  let periods = [ (100, 200); (300, 700); (800, 1600); (2000, 4000) ] in
  let series label =
    let protocol = Registry.find_exn label in
    let per_period =
      grid c ~table:id periods
        ~coords:(fun (lo, hi) -> (label, Printf.sprintf "period=%d-%d" lo hi))
        (fun (lo, hi) seed ->
          let w = workload ~n:6 ~messages:1200 ~basic_period:(lo, hi) (env "random") in
          let seed = Experiment.cell_seed [ id; Printf.sprintf "%d-%d" lo hi ] seed in
          let r = Runtime.run { w with protocol; seed } in
          lost_work_fraction r.Runtime.pattern)
    in
    {
      label;
      points =
        List.map
          (fun ((lo, hi), fs) -> { x = float_of_int (lo + hi) /. 2.0; stats = Stats.of_list fs })
          per_period;
    }
  in
  Figure { xlabel = "mean basic period"; series = List.map series [ "none"; "bcs"; "bhmr" ] }

(* ------------------------------------------------------------------ *)
(* Tables                                                              *)
(* ------------------------------------------------------------------ *)

let hierarchy = [ "cbr"; "nras"; "cas"; "fdi"; "fdas"; "bhmr-v2"; "bhmr-v1"; "bhmr" ]

let environments = [ "random"; "group"; "client-server"; "prodcons"; "master-worker"; "stencil" ]

(* TAB-PROTOCOLS: forced checkpoints per 100 basic checkpoints for every
   protocol of the hierarchy, in each environment (n = 8). *)
let table_protocols c =
  let table = "TAB-PROTOCOLS" in
  let keys = List.concat_map (fun p -> List.map (fun e -> (p, e)) environments) hierarchy in
  let per_cell =
    grid c ~table keys ~coords:Fun.id (fun (pname, ename) seed ->
        let w = workload (env ename) in
        let seed = Experiment.cell_seed [ table; ename ] seed in
        let r = Runtime.run { w with protocol = Registry.find_exn pname; seed } in
        Rdt_core.Metrics.forced_per_basic r.Runtime.metrics)
  in
  Table
    (tabulate ("protocol" :: environments)
       (List.map
          (fun pname ->
            pname
            :: List.map
                 (fun ename ->
                   let vals = List.assoc (pname, ename) per_cell in
                   Table.cell_f (100.0 *. Stats.mean (Stats.of_list vals)))
                 environments)
          hierarchy))

(* TAB-OVERHEAD: piggyback size (bits/message) per protocol vs n. *)
let table_overhead _ =
  let ns = [ 2; 4; 8; 16; 32; 64 ] in
  Table
    (tabulate
       ("protocol" :: List.map (fun n -> Printf.sprintf "n=%d" n) ns)
       (List.map
          (fun p ->
            Rdt_core.Protocol.name p
            :: List.map (fun n -> string_of_int (Rdt_core.Protocol.payload_bits p ~n)) ns)
          Registry.all))

let claim_environments =
  [
    ("random (n=4)", fun () -> workload ~n:4 (env "random"));
    ( "group pairs (n=12)",
      fun () ->
        let params =
          { Rdt_workloads.Group_env.default_group_params with group_size = 2; multicast_prob = 0.0 }
        in
        workload ~n:12 (Rdt_workloads.Group_env.make ~params ()) );
    ("client-server (n=8)", fun () -> workload (env "client-server"));
    ("master-worker (n=8)", fun () -> workload (env "master-worker"));
  ]

(* CLAIM-10PCT: per environment, the measured reduction
   [1 - R(bhmr vs fdas)].  The paper claims at least 10% in its study;
   see EXPERIMENTS.md for where our reproduction meets it. *)
let claim_ten_percent c =
  let table = "CLAIM-10PCT" in
  let protocol = Registry.find_exn "bhmr" in
  let per_env =
    grid c ~table claim_environments
      ~coords:(fun (label, _) -> ("bhmr", label))
      (fun (label, mk) seed ->
        let w = mk () in
        let seed = Experiment.cell_seed [ table; label ] seed in
        let r = Runtime.run { w with protocol; seed } in
        Experiment.forced_ratio r (Runtime.run { w with protocol = fdas; seed }))
  in
  Claim (List.map (fun ((label, _), rs) -> (label, 1.0 -. Stats.mean (stats_of_some rs))) per_env)

let table_min_gcp c =
  let table = "TAB-MINGCP" in
  let protocol = Registry.find_exn "bhmr" in
  let per_env =
    grid c ~table environments
      ~coords:(fun ename -> ("bhmr", ename))
      (fun ename seed ->
        let w = workload ~n:6 ~messages:600 (env ename) in
        let seed = Experiment.cell_seed [ table; ename ] seed in
        let r = Runtime.run { w with protocol; seed } in
        let pat = r.Runtime.pattern in
        let tdv = Rdt_pattern.Tdv.compute pat in
        let checked = ref 0 and agree = ref 0 in
        let span = Stats.create () in
        Rdt_pattern.Pattern.iter_ckpts pat (fun c ->
            let id = (c.Rdt_pattern.Types.owner, c.Rdt_pattern.Types.index) in
            let online = Rdt_pattern.Tdv.at tdv id in
            incr checked;
            (match Rdt_pattern.Consistency.min_consistent_containing pat [ id ] with
            | Some v when v = Array.copy online -> incr agree
            | Some _ | None -> ());
            let _, x = id in
            Array.iteri
              (fun j y ->
                if j <> fst id then
                  Stats.add span (float_of_int (min x (Rdt_pattern.Pattern.last_index pat j) - y)))
              online);
        (!checked, !agree, span))
  in
  Table
    (tabulate [ "environment"; "ckpts checked"; "TDV = min GCP"; "mean span" ]
       (List.map
          (fun (ename, per_seed) ->
            let checked = ref 0 and agree = ref 0 in
            let span = Stats.create () in
            List.iter
              (fun (c, a, s) ->
                checked := !checked + c;
                agree := !agree + a;
                Stats.merge ~into:span s)
              per_seed;
            [
              ename;
              string_of_int !checked;
              Table.cell_pct (float_of_int !agree /. float_of_int (max 1 !checked));
              Table.cell_f (Stats.mean span);
            ])
          per_env))

let table_ablation c =
  let table = "ABLATION" in
  let per_protocol =
    grid c ~table [ "fdas"; "bhmr-v2"; "bhmr-v1"; "bhmr" ]
      ~coords:(fun pname -> (pname, "client-server"))
      (fun pname seed ->
        let w = workload (env "client-server") in
        let seed = Experiment.cell_seed [ table; "client-server" ] seed in
        let r = Runtime.run { w with protocol = Registry.find_exn pname; seed } in
        let ratio = Experiment.forced_ratio r (Runtime.run { w with protocol = fdas; seed }) in
        (r.Runtime.metrics.Rdt_core.Metrics.forced, ratio, r.Runtime.predicate_counts))
  in
  (* a predicate's firings per seed; "-" when it never fired on any *)
  let fires (name : string) per_seed =
    let hits (_, _, counts) =
      List.filter_map (fun (p, k) -> if p = name then Some k else None) counts
    in
    match List.concat_map hits per_seed with
    | [] -> "-"
    | ks ->
        let total = List.fold_left ( + ) 0 ks in
        Table.cell_f (float_of_int total /. float_of_int (List.length per_seed))
  in
  column_table "protocol"
    [
      ("forced", mean (fun (fp, _, _) -> float_of_int fp));
      (* seeds where FDAS forced nothing have no ratio *)
      ( "R vs fdas",
        fun rs -> Table.cell_f (Stats.mean (stats_of_some (List.map (fun (_, r, _) -> r) rs))) );
      ("c1 fires", fires "c1");
      ("c2 fires", fires "c2");
      ("c2' fires", fires "c2'");
      ("c_fdas fires", fires "c_fdas");
    ]
    per_protocol

(* TAB-RECOVERY (extension): what the guarantees buy at recovery time.
   For [none], [bcs], [fdas] and [bhmr] on a chatty workload: the
   fraction of useless checkpoints (members of no consistent global
   checkpoint), and — after crashing process 0 in the middle of the run —
   the fraction of their work the survivors lose, the in-transit
   messages a logging layer must replay, and the events to re-execute. *)
let table_recovery c =
  let table = "TAB-RECOVERY" in
  let per_protocol =
    grid c ~table [ "none"; "bcs"; "fdas"; "bhmr" ]
      ~coords:(fun pname -> (pname, "client-server"))
      (fun pname seed ->
        let w = workload ~n:6 ~messages:800 (env "client-server") in
        let seed = Experiment.cell_seed [ table; "client-server" ] seed in
        let r = Runtime.run { w with protocol = Registry.find_exn pname; seed } in
        let pat = r.Runtime.pattern in
        let total = ref 0 and bad = ref 0 in
        Rdt_pattern.Pattern.iter_ckpts pat (fun c ->
            if c.Rdt_pattern.Types.kind <> Rdt_pattern.Types.Final then begin
              incr total;
              if
                Rdt_pattern.Consistency.useless pat
                  (c.Rdt_pattern.Types.owner, c.Rdt_pattern.Types.index)
              then incr bad
            end);
        let useless = float_of_int !bad /. float_of_int (max 1 !total) in
        (* crash process 0 halfway through its checkpoints *)
        let crash =
          [
            {
              Rdt_recovery.Recovery_line.pid = 0;
              available = Rdt_pattern.Pattern.last_index pat 0 / 2;
            };
          ]
        in
        let outcome = Rdt_recovery.Recovery_line.recover pat crash in
        let n = Rdt_pattern.Pattern.n pat in
        let survivor_loss = ref [] in
        for i = n - 1 downto 1 do
          let last = Rdt_pattern.Pattern.last_index pat i in
          if last > 0 then
            survivor_loss :=
              (float_of_int outcome.Rdt_recovery.Recovery_line.rolled_back_ckpts.(i)
              /. float_of_int last)
              :: !survivor_loss
        done;
        let cost = Rdt_recovery.Message_log.replay_cost pat ~crash in
        ( useless,
          !survivor_loss,
          float_of_int cost.Rdt_recovery.Message_log.replayed_messages,
          float_of_int cost.Rdt_recovery.Message_log.reexecuted_events ))
  in
  column_table "protocol"
    [
      ("useless ckpts", mean_pct (fun (u, _, _, _) -> u));
      (* every survivor of every seed weighs the same *)
      ("survivor loss", fun rs -> mean_pct Fun.id (List.concat_map (fun (_, l, _, _) -> l) rs));
      ("replayed msgs", mean (fun (_, _, r, _) -> r));
      ("redone events", mean (fun (_, _, _, r) -> r));
    ]
    per_protocol

(* A marker message carries a snapshot id: charge 64 bits of control data
   per marker when comparing against piggybacked overheads. *)
let marker_bits = 64

let table_coordinated c =
  let table = "TAB-COORDINATED" in
  let n = 8 and max_messages = 1500 in
  (* coordinated, at the default initiation period: Chandy-Lamport
     snapshots, then Koo-Toueg's blocking dependency-directed rounds *)
  let coordinated =
    grid c ~table
      [ ("chandy-lamport", Coordinated.Chandy_lamport); ("koo-toueg", Coordinated.Koo_toueg) ]
      ~coords:(fun (name, _) -> (name, "random"))
      (fun (name, algo) seed ->
        let seed = Experiment.cell_seed [ table; name ] seed in
        let cfg = { (Coordinated.default_config algo (env "random")) with n; seed; max_messages } in
        let m = (Coordinated.run cfg).metrics in
        ( float_of_int m.checkpoints_taken,
          float_of_int m.control_messages,
          float_of_int (m.control_messages * marker_bits) /. float_of_int m.app_messages,
          m.mean_latency ))
  in
  (* CIC protocols: no control messages; overhead = piggyback *)
  let cic =
    grid c ~table [ "bhmr"; "fdas"; "cbr" ]
      ~coords:(fun pname -> (pname, "random"))
      (fun pname seed ->
        let protocol = Registry.find_exn pname in
        let w = workload ~n ~messages:max_messages (env "random") in
        let seed = Experiment.cell_seed [ table; "cic" ] seed in
        let m = (Runtime.run { w with protocol; seed }).Runtime.metrics in
        ( float_of_int (m.Rdt_core.Metrics.forced + m.Rdt_core.Metrics.basic),
          Rdt_core.Protocol.payload_bits protocol ~n ))
  in
  let columns =
    [
      ("checkpoints", mean (fun (x, _, _, _) -> x));
      ("control msgs", mean (fun (_, x, _, _) -> x));
      ("overhead bits/app-msg", mean (fun (_, _, x, _) -> x));
      ("snapshot latency", mean (fun (_, _, _, x) -> x));
    ]
  in
  Table
    (tabulate ("approach" :: List.map fst columns)
       (column_rows (List.map snd columns)
          (List.map (fun ((name, _), rows) -> (name, rows)) coordinated)
       @ column_rows
           [
             mean fst;
             Fun.const "0.000";
             (fun rs -> string_of_int (snd (List.hd rs)));
             Fun.const "-";
           ]
           cic))

(* BREAK-EVEN (extension): when is the protocol's n² piggyback worth it?
   Total overhead is modelled as [piggyback_bits × messages +
   checkpoint_cost × forced]; the table reports, per environment (n = 8),
   the forced-checkpoint savings of bhmr over FDAS, the extra piggyback
   it pays, and the break-even checkpoint size above which bhmr's total
   overhead is lower. *)
let table_breakeven c =
  let table = "BREAK-EVEN" in
  let n = 8 and max_messages = 1500 in
  let bhmr = Registry.find_exn "bhmr" in
  let bits_fdas = Rdt_core.Protocol.payload_bits fdas ~n in
  let bits_bhmr = Rdt_core.Protocol.payload_bits bhmr ~n in
  let per_env =
    grid c ~table environments
      ~coords:(fun ename -> ("bhmr", ename))
      (fun ename seed ->
        let w = workload ~n ~messages:max_messages (env ename) in
        let seed = Experiment.cell_seed [ table; ename ] seed in
        let rf = Runtime.run { w with protocol = fdas; seed } in
        let rb = Runtime.run { w with protocol = bhmr; seed } in
        ( float_of_int rf.Runtime.metrics.Rdt_core.Metrics.forced,
          float_of_int rb.Runtime.metrics.Rdt_core.Metrics.forced ))
  in
  Table
    (tabulate
       [
         "environment";
         "forced fdas";
         "forced bhmr";
         "extra piggyback (bits/msg)";
         "break-even ckpt size";
       ]
       (List.map
          (fun (ename, per_seed) ->
            let ff = mean_of fst per_seed and fb = mean_of snd per_seed in
            let saved = ff -. fb in
            let extra_bits = float_of_int ((bits_bhmr - bits_fdas) * max_messages) in
            let breakeven =
              if saved <= 0.0 then "inf"
              else
                let bits = extra_bits /. saved in
                Printf.sprintf "%.1f KiB" (bits /. 8192.0)
            in
            [
              ename;
              Table.cell_f ff;
              Table.cell_f fb;
              string_of_int (bits_bhmr - bits_fdas);
              breakeven;
            ])
          per_env))

let table_goodput c =
  let table = "TAB-GOODPUT" in
  let crashes =
    [
      { Runtime.victim = 1; at = 2500; repair_delay = 200 };
      { Runtime.victim = 3; at = 5000; repair_delay = 200 };
      { Runtime.victim = 1; at = 7500; repair_delay = 200 };
    ]
  in
  let per_protocol =
    grid c ~table [ "none"; "bcs"; "fdas"; "bhmr"; "cbr" ]
      ~coords:(fun pname -> (pname, "random"))
      (fun pname seed ->
        let protocol = Registry.find_exn pname in
        let seed = Experiment.cell_seed [ table; "random" ] seed in
        let r =
          Runtime.run (Runtime.configure ~n:6 ~seed ~messages:1500 ~crashes (env "random") protocol)
        in
        let total f = float_of_int (List.fold_left (fun a rc -> a + f rc) 0 r.recoveries) in
        ( total (fun rc -> rc.Runtime.events_undone),
          total (fun rc -> rc.Runtime.messages_replayed),
          total (fun rc -> rc.Runtime.messages_undone),
          float_of_int r.metrics.messages ))
  in
  column_table "protocol"
    [
      ("events undone", mean (fun (u, _, _, _) -> u));
      ("replayed", mean (fun (_, r, _, _) -> r));
      ("sends destroyed", mean (fun (_, _, d, _) -> d));
      ("delivered", mean (fun (_, _, _, d) -> d));
    ]
    per_protocol

let fault_envs = [ "random"; "group"; "client-server" ]

(* TAB-FAULTS (extension): robustness of the protocol stack to an
   unreliable network.  For bhmr over the reliable-delivery transport
   (n = 6), per packet-drop rate and environment: the paired
   forced-checkpoint inflation [forced(faulty)/forced(reliable)], the
   retransmissions per application message, and the messages abandoned
   as undeliverable (0 at these rates).  The drop = 0 row isolates the
   effect of the transport's FIFO links alone. *)
let table_faults c =
  let table = "TAB-FAULTS" in
  let protocol = Registry.find_exn "bhmr" in
  let drops = [ 0.0; 0.02; 0.05; 0.1 ] in
  let keys = List.concat_map (fun drop -> List.map (fun e -> (drop, e)) fault_envs) drops in
  let per_cell =
    grid c ~table keys
      ~coords:(fun (drop, ename) -> ("bhmr", Printf.sprintf "%s drop=%g" ename drop))
      (fun (drop, ename) seed ->
        (* paired against the reliable run of the same derived seed; the
           drop=0 row isolates the effect of the FIFO transport alone *)
        let w0 = workload ~n:6 ~messages:800 (env ename) in
        let w =
          workload ~n:6 ~messages:800 ~faults:{ Rdt_dist.Faults.none with drop }
            ~transport:Rdt_dist.Transport.default_params (env ename)
        in
        let seed = Experiment.cell_seed [ table; ename; Printf.sprintf "%g" drop ] seed in
        let r = Runtime.run { w with protocol; seed } in
        let ratio = Experiment.forced_ratio r (Runtime.run { w0 with protocol; seed }) in
        match r.Runtime.transport with
        | Some s ->
            ( ratio,
              float_of_int s.Rdt_dist.Transport.retransmissions
              /. float_of_int (max 1 s.Rdt_dist.Transport.accepted),
              s.Rdt_dist.Transport.undeliverable )
        | None -> (ratio, 0.0, 0))
  in
  Table
    (tabulate
       ("drop"
       :: List.concat_map
            (fun e -> [ e ^ " R(forced)"; e ^ " retx/msg"; e ^ " undeliv" ])
            fault_envs)
       (List.map
          (fun drop ->
            Printf.sprintf "%g" drop
            :: List.concat_map
                 (fun ename ->
                   let per_seed = List.assoc (drop, ename) per_cell in
                   [
                     Table.cell_f
                       (Stats.mean (stats_of_some (List.map (fun (r, _, _) -> r) per_seed)));
                     Table.cell_f (mean_of (fun (_, r, _) -> r) per_seed);
                     string_of_int (List.fold_left (fun a (_, _, u) -> a + u) 0 per_seed);
                   ])
                 fault_envs)
          drops))

(* ------------------------------------------------------------------ *)
(* The checker benches' shared stream                                  *)
(* ------------------------------------------------------------------ *)

type bench_stream = {
  result : Runtime.result;
  events : Rdt_obs.Trace.event list;
  nev : int;
  procs : int;  (** process count read back from the trace *)
  baseline : Rdt_check.Online.summary;  (** the serial [Online.check_trace] verdict *)
  check_s : float;  (** wall time of that serial check *)
}

(* One long bhmr/random run (n = 8, seed 1) recorded as a trace of
   >= [min_events] events (every message is one send + one delivery, plus
   checkpoints), then streamed once through a plain in-memory engine:
   the baseline every checker bench compares against.  [who] names the
   bench in error messages. *)
let bench_stream ~who ~min_events =
  let protocol = Registry.find_exn "bhmr" in
  let env = Rdt_workloads.Registry.find_exn "random" in
  let tr = Rdt_obs.Trace.ring ~capacity:(8 * min_events) in
  let result =
    Runtime.run (Runtime.configure ~n:8 ~seed:1 ~messages:(min_events / 2) ~trace:tr env protocol)
  in
  let events = Rdt_obs.Trace.events tr in
  let fail e = invalid_arg (Printf.sprintf "%s: %s" who e) in
  let procs =
    match Rdt_check.Online.trace_process_count events with Ok n -> n | Error e -> fail e
  in
  let t0 = Rdt_obs.Meter.now () in
  let baseline =
    match Rdt_check.Online.check_trace events with
    | Ok t -> Rdt_check.Online.summary t
    | Error e -> fail ("inconsistent trace: " ^ e)
  in
  let check_s = Rdt_obs.Meter.now () -. t0 in
  { result; events; nev = List.length events; procs; baseline; check_s }

(* A bench's one report cell under its entry id, and its derived
   figures as micros. *)
let report_bench c ~table ~protocol ~env ~seed ~seconds micros =
  Option.iter
    (fun rp ->
      Bench_report.add rp ~table ~protocol ~env ~seed ~seconds;
      List.iter (fun (name, ns) -> Bench_report.add_micro rp ~name ~ns) micros)
    c.report

(* ------------------------------------------------------------------ *)
(* BENCH-ONLINE: amortized per-event cost of the incremental checker    *)
(* ------------------------------------------------------------------ *)

let table_online c =
  (* online: the stream through a fresh engine, one event at a time *)
  let { result = r; nev; baseline; check_s = online_s; _ } =
    bench_stream ~who:"BENCH-ONLINE" ~min_events:5_000
  in
  (* offline cost of one full re-check, the unit of the "re-check after
     every event" strategy the online engine replaces *)
  let t0 = Rdt_obs.Meter.now () in
  let off = Rdt_core.Checker.run r.Runtime.pattern in
  let offline_s = Rdt_obs.Meter.now () -. t0 in
  (* the metered pattern-mode entry point, so the [checker.online] span
     and [checker.online_events] counter land in the report *)
  let rep = Rdt_core.Checker.run ~algo:`Online r.Runtime.pattern in
  assert (
    rep.Rdt_core.Checker.rdt = off.Rdt_core.Checker.rdt
    && baseline.Rdt_check.Online.rdt = off.Rdt_core.Checker.rdt);
  let ns_per_event = 1e9 *. online_s /. float_of_int (max 1 nev) in
  (* re-checking offline after every event costs ~[nev] full checks (the
     final-pattern check as the per-check unit); amortized online must
     beat it by orders of magnitude *)
  let speedup = float_of_int nev *. offline_s /. max 1e-9 online_s in
  report_bench c ~table:"BENCH-ONLINE" ~protocol:"bhmr" ~env:"random" ~seed:1 ~seconds:online_s
    [
      ("online.ns_per_event", ns_per_event);
      ("online.offline_recheck_ns", 1e9 *. offline_s);
      ("online.speedup_vs_offline", speedup);
    ];
  Table
    (tabulate [ "events"; "ns/event"; "offline check (ms)"; "speedup" ]
       [
         [
           string_of_int nev;
           Table.cell_f ns_per_event;
           Table.cell_f (1e3 *. offline_s);
           Table.cell_f speedup;
         ];
       ])

(* ------------------------------------------------------------------ *)
(* BENCH-DURABLE: cost of crash-safe checker state                      *)
(* ------------------------------------------------------------------ *)

(* Scratch paths (the durable bench's directory, the serve bench's
   socket) without ambient randomness: the path is a function of the pid
   and a counter, both irrelevant to simulation output. *)
let scratch_counter = ref 0

let scratch_path name suffix =
  incr scratch_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "%s-%d-%d%s" name (Unix.getpid ()) !scratch_counter suffix)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let table_durable c =
  (* baseline: the same stream through a plain in-memory engine *)
  let { events; nev; procs = n; baseline; check_s = online_s; _ } =
    bench_stream ~who:"BENCH-DURABLE" ~min_events:5_000
  in
  (* durable: every event into the WAL, a snapshot generation every
     nev/8; the WAL is fsynced at each install and at close only *)
  let dir = scratch_path "rdt-durable-bench" "" in
  rm_rf dir;
  let config =
    { Rdt_durable.Session.snapshot_every = max 1 (nev / 8) }
  in
  let fsyncs () =
    Option.value ~default:0
      (List.assoc_opt "wal.fsync" (Rdt_obs.Meter.counters Rdt_obs.Meter.default))
  in
  let fsyncs0 = fsyncs () in
  let t0 = Rdt_obs.Meter.now () in
  let s, _ = Rdt_durable.Session.open_ ~config ~dir ~n ~track_open:true () in
  List.iter (Rdt_durable.Session.observe s) events;
  Rdt_durable.Session.close s;
  let durable_s = Rdt_obs.Meter.now () -. t0 in
  let wal_fsyncs = fsyncs () - fsyncs0 in
  let snapshots = Rdt_durable.Session.generation s in
  assert (Rdt_check.Online.summary (Rdt_durable.Session.engine s) = baseline);
  (* recover from what just hit the disk: only the tail past the last
     snapshot replays, and the verdict must be the uninterrupted one *)
  let s2, info = Rdt_durable.Session.open_ ~config ~dir ~n ~track_open:true () in
  assert (Rdt_check.Online.summary (Rdt_durable.Session.engine s2) = baseline);
  Rdt_durable.Session.close s2;
  let replayed =
    match info with
    | Some i -> i.Rdt_durable.Session.replayed_events
    | None -> invalid_arg "BENCH-DURABLE: durable directory came back empty"
  in
  rm_rf dir;
  let durable_ns = 1e9 *. durable_s /. float_of_int (max 1 nev) in
  let online_ns = 1e9 *. online_s /. float_of_int (max 1 nev) in
  let overhead = durable_s /. Float.max 1e-9 online_s in
  report_bench c ~table:"BENCH-DURABLE" ~protocol:"bhmr" ~env:"random" ~seed:1 ~seconds:durable_s
    [ ("durable.ns_per_event", durable_ns); ("durable.overhead_vs_online", overhead) ];
  Table
    (tabulate
       [
         "events";
         "ns/event durable";
         "ns/event online";
         "overhead";
         "snapshots";
         "wal fsyncs";
         "tail replayed";
       ]
       [
         [
           string_of_int nev;
           Table.cell_f durable_ns;
           Table.cell_f online_ns;
           Table.cell_f overhead;
           string_of_int snapshots;
           string_of_int wal_fsyncs;
           string_of_int replayed;
         ];
       ])

(* ------------------------------------------------------------------ *)
(* BENCH-FUZZ: throughput of the adversarial scenario fuzzer            *)
(* ------------------------------------------------------------------ *)

let table_fuzz c =
  let budget = if c.quick then 40 else 80 in
  let mapper = { Rdt_fuzz.Fuzzer.map = (fun f xs -> Pool.map ?jobs:c.jobs f xs) } in
  let cfg = { Rdt_fuzz.Fuzzer.default_config with budget } in
  let t0 = Rdt_obs.Meter.now () in
  let rep = Rdt_fuzz.Fuzzer.run ~mapper cfg in
  let seconds = Rdt_obs.Meter.now () -. t0 in
  (* the bench doubles as a sanity gate: on a healthy tree every
     generated scenario must pass all cross-checks *)
  (match rep.Rdt_fuzz.Fuzzer.failure with
  | None -> ()
  | Some f ->
      invalid_arg
        (Printf.sprintf "BENCH-FUZZ: scenario #%d failed (%s): %s"
           f.Rdt_fuzz.Fuzzer.index
           (Rdt_fuzz.Exec.kind_name f.Rdt_fuzz.Fuzzer.kind)
           f.Rdt_fuzz.Fuzzer.detail));
  let counts = rep.Rdt_fuzz.Fuzzer.counts in
  assert (counts.Rdt_fuzz.Fuzzer.ok = budget);
  let per_sec = float_of_int budget /. Float.max 1e-9 seconds in
  report_bench c ~table:"BENCH-FUZZ" ~protocol:"mixed" ~env:"mixed" ~seed:cfg.Rdt_fuzz.Fuzzer.seed
    ~seconds
    [ ("fuzz.scenarios_per_sec", per_sec) ];
  Table
    (tabulate [ "scenarios"; "ok"; "scenarios/s" ]
       [
         [
           string_of_int rep.Rdt_fuzz.Fuzzer.scenarios;
           string_of_int counts.Rdt_fuzz.Fuzzer.ok;
           Table.cell_f per_sec;
           ];
       ])

(* ------------------------------------------------------------------ *)
(* BENCH-SCALE: the sharded engine at n = 10^4                         *)
(* ------------------------------------------------------------------ *)

(* [--quick] shrinks the run to n = 1000 *)
let scale_params ~quick =
  if quick then { Scale.default_params with Scale.n = 1_000; messages = 100_000 }
  else Scale.default_params

let table_scale c =
  let params = scale_params ~quick:c.quick in
  let t0 = Rdt_obs.Meter.now () in
  let r = Scale.run ?jobs:c.jobs params in
  let seconds = Rdt_obs.Meter.now () -. t0 in
  let events_per_sec = float_of_int r.Scale.events /. Float.max 1e-9 seconds in
  let bytes_per_process = float_of_int r.Scale.payload_bytes /. float_of_int params.Scale.n in
  report_bench c ~table:"BENCH-SCALE" ~protocol:"nras" ~env:"ring" ~seed:params.Scale.seed ~seconds
    [ ("scale.events_per_sec", events_per_sec); ("scale.bytes_per_process", bytes_per_process) ];
  Table
    (tabulate
       [ "n"; "messages"; "shards"; "events"; "forced"; "events/s"; "bytes/proc"; "checksum" ]
       [
         [
           string_of_int params.Scale.n;
           string_of_int params.Scale.messages;
           string_of_int r.Scale.shards;
           string_of_int r.Scale.events;
           string_of_int r.Scale.ckpts_forced;
           Table.cell_f events_per_sec;
           Table.cell_f bytes_per_process;
           Printf.sprintf "%016x" r.Scale.checksum;
         ];
       ])

(* ------------------------------------------------------------------ *)
(* BENCH-SERVE: multi-stream serving over the session wire protocol    *)
(* ------------------------------------------------------------------ *)

(* The full client/daemon path in-process: N clients stream the same
   recorded trace to an [Rdt_serve.Server] over a real Unix socket —
   framing, codec, backpressure, batched parallel apply — then query it
   live and say goodbye.  Doubles as a gate: every per-stream verdict
   must equal the serial [Online.check_trace] baseline. *)
let table_serve c =
  let streams = 4 in
  let module Server = Rdt_serve.Server in
  let module Client = Rdt_serve.Client in
  let module W = Rdt_check.Session.Wire in
  let { events; nev; procs = n; baseline; _ } =
    bench_stream ~who:"BENCH-SERVE" ~min_events:(if c.quick then 2_000 else 4_000)
  in
  let socket = scratch_path "rdt-serve" ".sock" in
  let meter = Rdt_obs.Meter.default in
  let query_span () =
    match List.assoc_opt "serve.query" (Rdt_obs.Meter.spans meter) with
    | Some s -> s
    | None -> { Rdt_obs.Meter.calls = 0; seconds = 0. }
  in
  let span0 = query_span () in
  let mapper = { Server.map = (fun f xs -> Pool.map ?jobs:c.jobs f xs) } in
  let server = Server.create ~mapper ~meter (Server.default_config ~socket) in
  let t0 = Rdt_obs.Meter.now () in
  let clients = Array.init streams (fun _ -> Client.connect ~socket) in
  let inbox = Array.make streams [] in
  let pump_until pred =
    let budget = ref 1_000_000 in
    while not (pred ()) do
      decr budget;
      if !budget = 0 then invalid_arg "BENCH-SERVE: server made no progress";
      (* the select timeout inside [step] doubles as the idle wait, so
         the loop never spins and never sleeps outside the server *)
      ignore (Server.step ~timeout:0.0005 server : int);
      Array.iteri (fun i c -> inbox.(i) <- inbox.(i) @ Client.poll c) clients
    done
  in
  let all_have pred = Array.for_all (fun rs -> List.exists pred rs) inbox in
  Array.iteri
    (fun i c ->
      Client.send c (W.Hello { version = W.version; stream = Printf.sprintf "bench-%d" i; n }))
    clients;
  pump_until (fun () -> all_have (function W.Welcome _ -> true | _ -> false));
  (* stream in frames of 256 events, draining between rounds so client
     inboxes and kernel buffers stay bounded *)
  List.iter
    (fun frame ->
      Array.iter (fun c -> Client.send c (W.Events frame)) clients;
      while Server.step server > 0 do
        ()
      done;
      Array.iteri (fun i c -> inbox.(i) <- inbox.(i) @ Client.poll c) clients)
    (W.batches 256 events);
  (* live queries: full summary plus a Corollary 4.5 minimum-GCP answer
     (forces a pattern reconstruction on the server) *)
  Array.iter
    (fun c ->
      Client.send c (W.Query { id = 0; query = W.Summary });
      Client.send c (W.Query { id = 1; query = W.Min_gcp [ (0, 0) ] }))
    clients;
  pump_until (fun () ->
      all_have (function W.Answer { id = 1; _ } -> true | _ -> false));
  Array.iter (fun rs ->
      List.iter
        (function
          | W.Answer { id = 0; answer = W.Stats s } ->
              if s <> baseline then
                invalid_arg "BENCH-SERVE: served summary diverged from baseline"
          | W.Answer { id = 1; answer = W.Cut None } ->
              invalid_arg "BENCH-SERVE: min-GCP query found no consistent cut"
          | W.Failed { error; _ } -> invalid_arg ("BENCH-SERVE: query failed: " ^ error)
          | _ -> ())
        rs)
    inbox;
  Array.iter (fun c -> Client.send c W.Bye) clients;
  pump_until (fun () -> all_have (function W.Goodbye _ -> true | _ -> false));
  let seconds = Rdt_obs.Meter.now () -. t0 in
  Array.iteri
    (fun i rs ->
      List.iter
        (function
          | W.Goodbye { summary; _ } ->
              if summary <> baseline then
                invalid_arg
                  (Printf.sprintf
                     "BENCH-SERVE: stream %d's verdict diverged from baseline" i)
          | _ -> ())
        rs)
    inbox;
  Array.iter Client.close clients;
  Server.close server;
  let span1 = query_span () in
  let queries = span1.Rdt_obs.Meter.calls - span0.Rdt_obs.Meter.calls in
  let query_ns =
    1e9
    *. (span1.Rdt_obs.Meter.seconds -. span0.Rdt_obs.Meter.seconds)
    /. float_of_int (max 1 queries)
  in
  let total = streams * nev in
  let events_per_sec = float_of_int total /. Float.max 1e-9 seconds in
  report_bench c ~table:"BENCH-SERVE" ~protocol:"bhmr" ~env:"random" ~seed:1 ~seconds
    [ ("serve.events_per_sec", events_per_sec); ("serve.query_ns", query_ns) ];
  Table
    (tabulate [ "streams"; "events/stream"; "events/s"; "queries"; "ns/query"; "rdt" ]
       [
         [
           string_of_int streams;
           string_of_int nev;
           Table.cell_f events_per_sec;
           string_of_int queries;
           Table.cell_f query_ns;
           string_of_bool baseline.Rdt_check.Online.rdt;
         ];
       ])

(* ------------------------------------------------------------------ *)
(* The suite: every entry in print order, and one driver               *)
(* ------------------------------------------------------------------ *)

let entry ?name ?(few_seeds = false) id title run =
  { id; title = (fun ~quick:_ -> title); name; few_seeds; run }

let entries =
  [
    entry "FIG-RANDOM" "R = forced/forced(FDAS) in the general random environment" fig_random;
    entry "FIG-8" "R in overlapping group communication environments (n=12)" fig_group;
    entry "FIG-9" "R in client/server environments" fig_client_server;
    entry ~name:"protocols" "TAB-PROTOCOLS" "forced checkpoints per 100 basic (n=8)"
      table_protocols;
    entry ~name:"overhead" "TAB-OVERHEAD" "piggyback bits per message" table_overhead;
    entry ~name:"claim" "CLAIM-10PCT" "reduction of forced checkpoints vs FDAS" claim_ten_percent;
    entry ~name:"mingcp" ~few_seeds:true "TAB-MINGCP"
      "Corollary 4.5 (on-the-fly minimum global checkpoint)" table_min_gcp;
    entry ~name:"ablation" "ABLATION" "predicate firings per variant (client-server, n=8)"
      table_ablation;
    entry ~name:"recovery" ~few_seeds:true "TAB-RECOVERY"
      "useless checkpoints, domino and replay (client-server, n=6)" table_recovery;
    entry ~name:"coordinated" ~few_seeds:true "TAB-COORDINATED"
      "coordinated snapshots vs CIC (random, n=8)" table_coordinated;
    entry ~name:"breakeven" "BREAK-EVEN"
      "checkpoint size above which bhmr beats fdas in total overhead" table_breakeven;
    entry "FIG-LOST-WORK" "fraction of events undone by a crash at 60% of the run (random, n=6)"
      fig_lost_work;
    entry ~name:"goodput" ~few_seeds:true "TAB-GOODPUT"
      "online crash recovery, 3 crashes (random, n=6)" table_goodput;
    entry ~name:"faults" ~few_seeds:true "TAB-FAULTS"
      "forced-checkpoint inflation and retransmission cost vs drop rate (bhmr, n=6)" table_faults;
    entry ~name:"online" "BENCH-ONLINE"
      "amortized per-event cost of the incremental checker (bhmr, n=8)" table_online;
    entry ~name:"durable" "BENCH-DURABLE"
      "cost of crash-safe checker state (WAL + snapshots, bhmr, n=8)" table_durable;
    entry ~name:"fuzz" "BENCH-FUZZ" "adversarial scenario fuzzer throughput (mixed protocols)"
      table_fuzz;
    {
      (entry ~name:"scale" "BENCH-SCALE" "" table_scale) with
      title =
        (fun ~quick ->
          Printf.sprintf "sharded engine throughput (nras, ring, n=%d)"
            (scale_params ~quick).Scale.n);
    };
    entry ~name:"serve" "BENCH-SERVE"
      "multi-stream serving over the session wire protocol (bhmr, n=8)" table_serve;
  ]

let find key =
  match List.find_opt (fun e -> e.id = key || e.name = Some key) entries with
  | Some e -> e
  | None -> invalid_arg ("Experiments.find: unknown entry " ^ key)

let print_output = function
  | Figure f -> print_figure f
  | Table t -> Table.print t
  | Claim reductions ->
      List.iter
        (fun (label, reduction) ->
          Format.printf "  %-22s %5.1f%%  %s@." label (100.0 *. reduction)
            (if reduction >= 0.10 then "(>= 10%: yes)" else "(>= 10%: no)"))
        reductions

let run ?(quick = false) ?jobs ?report ?seeds entries =
  let seeds_of e =
    match (seeds, quick, e.few_seeds) with
    | Some seeds, _, _ -> seeds
    | None, false, false -> Experiment.default_seeds
    | None, false, true | None, true, false -> Experiment.quick_seeds
    | None, true, true -> [ 1 ]
  in
  let t0 = Rdt_obs.Meter.now () in
  List.iter
    (fun e ->
      Format.printf "@.== %s: %s ==@." e.id (e.title ~quick);
      print_output (e.run { jobs; report; seeds = seeds_of e; quick }))
    entries;
  Option.iter (fun r -> Bench_report.set_wall r (Rdt_obs.Meter.now () -. t0)) report;
  Format.print_flush ()
