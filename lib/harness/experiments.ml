module Registry = Rdt_core.Registry
module Runtime = Rdt_core.Runtime
module Coordinated = Rdt_coordinated.Coordinated

type point = { x : float; stats : Stats.t }

type series = { label : string; points : point list }

type figure = { id : string; title : string; xlabel : string; series : series list }

let fdas = Registry.find_exn "fdas"

let variants = [ "bhmr"; "bhmr-v1"; "bhmr-v2" ]

let print_figure f =
  Format.printf "@.== %s: %s ==@." f.id f.title;
  let t =
    Table.create
      ~header:(f.xlabel :: List.concat_map (fun s -> [ s.label; "±" ]) f.series)
  in
  (match f.series with
  | [] -> ()
  | first :: _ ->
      List.iteri
        (fun i p ->
          let cells =
            List.concat_map
              (fun s ->
                let p = List.nth s.points i in
                [ Table.cell_f (Stats.mean p.stats); Table.cell_f (Stats.ci95_half_width p.stats) ])
              f.series
          in
          t |> fun t -> Table.add_row t (Printf.sprintf "%g" p.x :: cells))
        first.points);
  Table.print t

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
let grid ?jobs ?report ~table ~seeds ~coords keys f =
  let cells = List.concat_map (fun key -> List.map (fun seed -> (key, seed)) seeds) keys in
  let timed = Pool.map_timed ?jobs (fun (key, seed) -> f key seed) cells in
  Option.iter
    (fun r ->
      List.iter2
        (fun (key, seed) (_, seconds) ->
          let protocol, env = coords key in
          Bench_report.add r ~table ~protocol ~env ~seed ~seconds)
        cells timed)
    report;
  let results = Array.of_list (List.map fst timed) and k = List.length seeds in
  List.mapi (fun i key -> (key, List.init k (fun j -> results.((i * k) + j)))) keys

let stats_of_some xs = Stats.of_list (List.filter_map Fun.id xs)

let mean_of f xs = Stats.mean (Stats.of_list (List.map f xs))

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

(* R against fdas for every BHMR variant, one point per x.  Both runs of
   a ratio share one cell, on the seed derived from (figure, x) —
   identical for every series of the figure, so series stay comparable
   run to run. *)
let ratio_figure ?jobs ?report ~seeds ~id ~title ~xlabel ~xs workload_of =
  let series label =
    let protocol = Registry.find_exn label in
    let per_x =
      grid ?jobs ?report ~table:id ~seeds xs
        ~coords:(fun x -> (label, Printf.sprintf "x=%g" x))
        (fun x seed ->
          let w = workload_of x in
          let seed = Experiment.cell_seed [ id; Printf.sprintf "x=%g" x ] seed in
          let r = Experiment.run_once w protocol ~seed in
          Experiment.forced_ratio r (Experiment.run_once w fdas ~seed))
    in
    { label; points = List.map (fun (x, rs) -> { x; stats = stats_of_some rs }) per_x }
  in
  { id; title; xlabel; series = List.map series variants }

let fig_random ?jobs ?report ?(seeds = Experiment.default_seeds) () =
  ratio_figure ?jobs ?report ~seeds ~id:"FIG-RANDOM"
    ~title:"R = forced/forced(FDAS) in the general random environment" ~xlabel:"n"
    ~xs:[ 2.0; 4.0; 8.0; 16.0; 32.0 ] (fun x ->
      Experiment.workload ~n:(int_of_float x) ~max_messages:1500 "random")

let fig_group ?jobs ?report ?(seeds = Experiment.default_seeds) () =
  ratio_figure ?jobs ?report ~seeds ~id:"FIG-8"
    ~title:"R in overlapping group communication environments (n=12)" ~xlabel:"group size"
    ~xs:[ 2.0; 3.0; 4.0; 6.0 ] (fun x ->
      let params =
        { Rdt_workloads.Group_env.default_group_params with group_size = int_of_float x }
      in
      Experiment.workload ~n:12 ~max_messages:1500
        ~make_env:(fun () -> Rdt_workloads.Group_env.make ~params ())
        "group")

let fig_client_server ?jobs ?report ?(seeds = Experiment.default_seeds) () =
  ratio_figure ?jobs ?report ~seeds ~id:"FIG-9" ~title:"R in client/server environments"
    ~xlabel:"n servers" ~xs:[ 2.0; 4.0; 8.0; 16.0 ] (fun x ->
      Experiment.workload ~n:(int_of_float x) ~max_messages:1500 "client-server")

let lost_work_fraction pat =
  (* crash process 0 at 60% of the run: restart from its last durable
     checkpoint before that instant *)
  let duration =
    Rdt_pattern.Pattern.fold_ckpts pat ~init:0 ~f:(fun acc c ->
        max acc c.Rdt_pattern.Types.time)
  in
  let crash_time = duration * 6 / 10 in
  let available = ref 0 in
  Array.iter
    (fun (c : Rdt_pattern.Types.ckpt) ->
      if c.kind <> Rdt_pattern.Types.Final && c.time <= crash_time then available := c.index)
    (Rdt_pattern.Pattern.checkpoints pat 0);
  let outcome =
    Rdt_recovery.Recovery_line.recover pat
      [ { Rdt_recovery.Recovery_line.pid = 0; available = !available } ]
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

let fig_lost_work ?jobs ?report ?(seeds = Experiment.default_seeds) () =
  let id = "FIG-LOST-WORK" in
  let periods = [ (100, 200); (300, 700); (800, 1600); (2000, 4000) ] in
  let series label =
    let protocol = Registry.find_exn label in
    let per_period =
      grid ?jobs ?report ~table:id ~seeds periods
        ~coords:(fun (lo, hi) -> (label, Printf.sprintf "period=%d-%d" lo hi))
        (fun (lo, hi) seed ->
          let w = Experiment.workload ~n:6 ~max_messages:1200 ~basic_period:(lo, hi) "random" in
          let seed = Experiment.cell_seed [ id; Printf.sprintf "%d-%d" lo hi ] seed in
          let r = Experiment.run_once w protocol ~seed in
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
  {
    id;
    title = "fraction of events undone by a crash at 60% of the run (random, n=6)";
    xlabel = "mean basic period";
    series = List.map series [ "none"; "bcs"; "bhmr" ];
  }

(* ------------------------------------------------------------------ *)
(* Tables                                                              *)
(* ------------------------------------------------------------------ *)

let hierarchy = [ "cbr"; "nras"; "cas"; "fdi"; "fdas"; "bhmr-v2"; "bhmr-v1"; "bhmr" ]

let environments = [ "random"; "group"; "client-server"; "prodcons"; "master-worker"; "stencil" ]

let table_protocols ?jobs ?report ?(seeds = Experiment.default_seeds) () =
  let table = "TAB-PROTOCOLS" in
  let keys = List.concat_map (fun p -> List.map (fun e -> (p, e)) environments) hierarchy in
  let per_cell =
    grid ?jobs ?report ~table ~seeds keys ~coords:Fun.id (fun (pname, ename) seed ->
        let protocol = Registry.find_exn pname in
        let w = Experiment.workload ~n:8 ~max_messages:1500 ename in
        let seed = Experiment.cell_seed [ table; ename ] seed in
        let r = Experiment.run_once w protocol ~seed in
        Rdt_core.Metrics.forced_per_basic r.Runtime.metrics)
  in
  let t = Table.create ~header:("protocol" :: environments) in
  List.iter
    (fun pname ->
      let row =
        List.map
          (fun ename ->
            let vals = List.assoc (pname, ename) per_cell in
            Table.cell_f (100.0 *. Stats.mean (Stats.of_list vals)))
          environments
      in
      Table.add_row t (pname :: row))
    hierarchy;
  t

let table_overhead ?(ns = [ 2; 4; 8; 16; 32; 64 ]) () =
  let t =
    Table.create ~header:("protocol" :: List.map (fun n -> Printf.sprintf "n=%d" n) ns)
  in
  List.iter
    (fun p ->
      Table.add_row t
        (Rdt_core.Protocol.name p
        :: List.map
             (fun n -> string_of_int (Rdt_core.Protocol.payload_bits p ~n))
             ns))
    Registry.all;
  t

let claim_environments =
  [
    ("random (n=4)", fun () -> Experiment.workload ~n:4 ~max_messages:1500 "random");
    ( "group pairs (n=12)",
      fun () ->
        let params =
          { Rdt_workloads.Group_env.default_group_params with group_size = 2; multicast_prob = 0.0 }
        in
        Experiment.workload ~n:12 ~max_messages:1500
          ~make_env:(fun () -> Rdt_workloads.Group_env.make ~params ())
          "group" );
    ("client-server (n=8)", fun () -> Experiment.workload ~n:8 ~max_messages:1500 "client-server");
    ("master-worker (n=8)", fun () -> Experiment.workload ~n:8 ~max_messages:1500 "master-worker");
  ]

let claim_ten_percent ?jobs ?report ?(seeds = Experiment.default_seeds) () =
  let table = "CLAIM-10PCT" in
  let bhmr = Registry.find_exn "bhmr" in
  grid ?jobs ?report ~table ~seeds claim_environments
    ~coords:(fun (label, _) -> ("bhmr", label))
    (fun (label, mk) seed ->
      let w = mk () in
      let seed = Experiment.cell_seed [ table; label ] seed in
      let r = Experiment.run_once w bhmr ~seed in
      Experiment.forced_ratio r (Experiment.run_once w fdas ~seed))
  |> List.map (fun ((label, _), rs) -> (label, 1.0 -. Stats.mean (stats_of_some rs)))

let table_min_gcp ?jobs ?report ?(seeds = Experiment.quick_seeds) () =
  let table = "TAB-MINGCP" in
  let bhmr = Registry.find_exn "bhmr" in
  let per_env =
    grid ?jobs ?report ~table ~seeds environments
      ~coords:(fun ename -> ("bhmr", ename))
      (fun ename seed ->
        let w = Experiment.workload ~n:6 ~max_messages:600 ename in
        let seed = Experiment.cell_seed [ table; ename ] seed in
        let r = Experiment.run_once w bhmr ~seed in
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
  let t =
    Table.create ~header:[ "environment"; "ckpts checked"; "TDV = min GCP"; "mean span" ]
  in
  List.iter
    (fun (ename, per_seed) ->
      let checked = ref 0 and agree = ref 0 in
      let span = Stats.create () in
      List.iter
        (fun (c, a, s) ->
          checked := !checked + c;
          agree := !agree + a;
          Stats.merge ~into:span s)
        per_seed;
      Table.add_row t
        [
          ename;
          string_of_int !checked;
          Table.cell_pct (float_of_int !agree /. float_of_int (max 1 !checked));
          Table.cell_f (Stats.mean span);
        ])
    per_env;
  t

let table_ablation ?jobs ?report ?(seeds = Experiment.default_seeds) () =
  let table = "ABLATION" in
  let protocols = [ "fdas"; "bhmr-v2"; "bhmr-v1"; "bhmr" ] in
  let per_protocol =
    grid ?jobs ?report ~table ~seeds protocols
      ~coords:(fun pname -> (pname, "client-server"))
      (fun pname seed ->
        let protocol = Registry.find_exn pname in
        let w = Experiment.workload ~n:8 ~max_messages:1500 "client-server" in
        let seed = Experiment.cell_seed [ table; "client-server" ] seed in
        let r = Experiment.run_once w protocol ~seed in
        let ratio = Experiment.forced_ratio r (Experiment.run_once w fdas ~seed) in
        (r.Runtime.metrics.Rdt_core.Metrics.forced, ratio, r.Runtime.predicate_counts))
  in
  let t =
    Table.create
      ~header:
        [ "protocol"; "forced"; "R vs fdas"; "c1 fires"; "c2 fires"; "c2' fires"; "c_fdas fires" ]
  in
  List.iter
    (fun (pname, per_seed) ->
      let fires = Hashtbl.create 7 in
      List.iter
        (fun (_, _, counts) ->
          List.iter
            (fun (name, count) ->
              let cur = try Hashtbl.find fires name with Not_found -> 0 in
              Hashtbl.replace fires name (cur + count))
            counts)
        per_seed;
      let avg name =
        match Hashtbl.find_opt fires name with
        | None -> "-"
        | Some total -> Table.cell_f (float_of_int total /. float_of_int (List.length seeds))
      in
      Table.add_row t
        [
          pname;
          Table.cell_f (mean_of (fun (fp, _, _) -> float_of_int fp) per_seed);
          Table.cell_f (Stats.mean (stats_of_some (List.map (fun (_, r, _) -> r) per_seed)));
          avg "c1";
          avg "c2";
          avg "c2'";
          avg "c_fdas";
        ])
    per_protocol;
  t

let table_recovery ?jobs ?report ?(seeds = Experiment.quick_seeds) () =
  let table = "TAB-RECOVERY" in
  let protocols = [ "none"; "bcs"; "fdas"; "bhmr" ] in
  let per_protocol =
    grid ?jobs ?report ~table ~seeds protocols
      ~coords:(fun pname -> (pname, "client-server"))
      (fun pname seed ->
        let protocol = Registry.find_exn pname in
        let w = Experiment.workload ~n:6 ~max_messages:800 "client-server" in
        let seed = Experiment.cell_seed [ table; "client-server" ] seed in
        let r = Experiment.run_once w protocol ~seed in
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
  let t =
    Table.create
      ~header:
        [ "protocol"; "useless ckpts"; "survivor loss"; "replayed msgs"; "redone events" ]
  in
  List.iter
    (fun (pname, per_seed) ->
      Table.add_row t
        [
          pname;
          Table.cell_pct (mean_of (fun (u, _, _, _) -> u) per_seed);
          Table.cell_pct
            (Stats.mean (Stats.of_list (List.concat_map (fun (_, l, _, _) -> l) per_seed)));
          Table.cell_f (mean_of (fun (_, _, r, _) -> r) per_seed);
          Table.cell_f (mean_of (fun (_, _, _, r) -> r) per_seed);
        ])
    per_protocol;
  t

(* A marker message carries a snapshot id: charge 64 bits of control data
   per marker when comparing against piggybacked overheads. *)
let marker_bits = 64

let table_coordinated ?jobs ?report ?(seeds = Experiment.quick_seeds) () =
  let table = "TAB-COORDINATED" in
  let n = 8 and max_messages = 1500 in
  let t =
    Table.create
      ~header:
        [
          "approach";
          "checkpoints";
          "control msgs";
          "overhead bits/app-msg";
          "snapshot latency";
        ]
  in
  (* coordinated, at the default initiation period: Chandy-Lamport
     snapshots, then Koo-Toueg's blocking dependency-directed rounds *)
  grid ?jobs ?report ~table ~seeds
    [ ("chandy-lamport", Coordinated.Chandy_lamport); ("koo-toueg", Coordinated.Koo_toueg) ]
    ~coords:(fun (name, _) -> (name, "random"))
    (fun (name, algo) seed ->
      let env = Rdt_workloads.Registry.find_exn "random" in
      let seed = Experiment.cell_seed [ table; name ] seed in
      let cfg = { (Coordinated.default_config algo env) with n; seed; max_messages } in
      let m = (Coordinated.run cfg).metrics in
      ( float_of_int m.checkpoints_taken,
        float_of_int m.control_messages,
        float_of_int (m.control_messages * marker_bits) /. float_of_int m.app_messages,
        m.mean_latency ))
  |> List.iter (fun ((name, _), rows) ->
         Table.add_row t
           [
             name;
             Table.cell_f (mean_of (fun (x, _, _, _) -> x) rows);
             Table.cell_f (mean_of (fun (_, x, _, _) -> x) rows);
             Table.cell_f (mean_of (fun (_, _, x, _) -> x) rows);
             Table.cell_f (mean_of (fun (_, _, _, x) -> x) rows);
           ]);
  (* CIC protocols: no control messages; overhead = piggyback *)
  grid ?jobs ?report ~table ~seeds [ "bhmr"; "fdas"; "cbr" ]
    ~coords:(fun pname -> (pname, "random"))
    (fun pname seed ->
      let protocol = Registry.find_exn pname in
      let w = Experiment.workload ~n ~max_messages "random" in
      let seed = Experiment.cell_seed [ table; "cic" ] seed in
      let r = Experiment.run_once w protocol ~seed in
      let m = r.Runtime.metrics in
      float_of_int (m.Rdt_core.Metrics.forced + m.Rdt_core.Metrics.basic))
  |> List.iter (fun (pname, per_seed) ->
         let protocol = Registry.find_exn pname in
         Table.add_row t
           [
             pname;
             Table.cell_f (mean_of Fun.id per_seed);
             "0.000";
             string_of_int (Rdt_core.Protocol.payload_bits protocol ~n);
             "-";
           ]);
  t

let table_breakeven ?jobs ?report ?(seeds = Experiment.default_seeds) () =
  let table = "BREAK-EVEN" in
  let n = 8 and max_messages = 1500 in
  let bhmr = Registry.find_exn "bhmr" in
  let bits_fdas = Rdt_core.Protocol.payload_bits fdas ~n in
  let bits_bhmr = Rdt_core.Protocol.payload_bits bhmr ~n in
  let per_env =
    grid ?jobs ?report ~table ~seeds environments
      ~coords:(fun ename -> ("bhmr", ename))
      (fun ename seed ->
        let w = Experiment.workload ~n ~max_messages ename in
        let seed = Experiment.cell_seed [ table; ename ] seed in
        let rf = Experiment.run_once w fdas ~seed in
        let rb = Experiment.run_once w bhmr ~seed in
        ( float_of_int rf.Runtime.metrics.Rdt_core.Metrics.forced,
          float_of_int rb.Runtime.metrics.Rdt_core.Metrics.forced ))
  in
  let t =
    Table.create
      ~header:
        [
          "environment";
          "forced fdas";
          "forced bhmr";
          "extra piggyback (bits/msg)";
          "break-even ckpt size";
        ]
  in
  List.iter
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
      Table.add_row t
        [
          ename;
          Table.cell_f ff;
          Table.cell_f fb;
          string_of_int (bits_bhmr - bits_fdas);
          breakeven;
        ])
    per_env;
  t

let table_goodput ?jobs ?report ?(seeds = Experiment.quick_seeds) () =
  let table = "TAB-GOODPUT" in
  let protocols = [ "none"; "bcs"; "fdas"; "bhmr"; "cbr" ] in
  let crashes =
    [
      { Runtime.victim = 1; at = 2500; repair_delay = 200 };
      { Runtime.victim = 3; at = 5000; repair_delay = 200 };
      { Runtime.victim = 1; at = 7500; repair_delay = 200 };
    ]
  in
  let per_protocol =
    grid ?jobs ?report ~table ~seeds protocols
      ~coords:(fun pname -> (pname, "random"))
      (fun pname seed ->
        let protocol = Registry.find_exn pname in
        let env = Rdt_workloads.Registry.find_exn "random" in
        let seed = Experiment.cell_seed [ table; "random" ] seed in
        let r =
          Runtime.run (Runtime.configure ~n:6 ~seed ~messages:1500 ~crashes env protocol)
        in
        let total f = float_of_int (List.fold_left (fun a rc -> a + f rc) 0 r.recoveries) in
        ( total (fun rc -> rc.Runtime.events_undone),
          total (fun rc -> rc.Runtime.messages_replayed),
          total (fun rc -> rc.Runtime.messages_undone),
          float_of_int r.metrics.messages ))
  in
  let t =
    Table.create
      ~header:[ "protocol"; "events undone"; "replayed"; "sends destroyed"; "delivered" ]
  in
  List.iter
    (fun (pname, per_seed) ->
      Table.add_row t
        [
          pname;
          Table.cell_f (mean_of (fun (u, _, _, _) -> u) per_seed);
          Table.cell_f (mean_of (fun (_, r, _, _) -> r) per_seed);
          Table.cell_f (mean_of (fun (_, _, d, _) -> d) per_seed);
          Table.cell_f (mean_of (fun (_, _, _, d) -> d) per_seed);
        ])
    per_protocol;
  t

let fault_envs = [ "random"; "group"; "client-server" ]

let table_faults ?jobs ?report ?(seeds = Experiment.quick_seeds) () =
  let table = "TAB-FAULTS" in
  let bhmr = Registry.find_exn "bhmr" in
  let drops = [ 0.0; 0.02; 0.05; 0.1 ] in
  let keys = List.concat_map (fun drop -> List.map (fun e -> (drop, e)) fault_envs) drops in
  let per_cell =
    grid ?jobs ?report ~table ~seeds keys
      ~coords:(fun (drop, ename) -> ("bhmr", Printf.sprintf "%s drop=%g" ename drop))
      (fun (drop, ename) seed ->
        (* paired against the reliable run of the same derived seed; the
           drop=0 row isolates the effect of the FIFO transport alone *)
        let faults = { Rdt_dist.Faults.none with drop } in
        let w =
          Experiment.workload ~n:6 ~max_messages:800 ~faults
            ~transport:Rdt_dist.Transport.default_params ename
        in
        let w0 = Experiment.workload ~n:6 ~max_messages:800 ename in
        let seed = Experiment.cell_seed [ table; ename; Printf.sprintf "%g" drop ] seed in
        let r = Experiment.run_once w bhmr ~seed in
        let ratio = Experiment.forced_ratio r (Experiment.run_once w0 bhmr ~seed) in
        match r.Runtime.transport with
        | Some s ->
            ( ratio,
              float_of_int s.Rdt_dist.Transport.retransmissions
              /. float_of_int (max 1 s.Rdt_dist.Transport.accepted),
              s.Rdt_dist.Transport.undeliverable )
        | None -> (ratio, 0.0, 0))
  in
  let t =
    Table.create
      ~header:
        ("drop"
        :: List.concat_map (fun e -> [ e ^ " R(forced)"; e ^ " retx/msg"; e ^ " undeliv" ]) fault_envs
        )
  in
  List.iter
    (fun drop ->
      let row =
        List.concat_map
          (fun ename ->
            let per_seed = List.assoc (drop, ename) per_cell in
            [
              Table.cell_f (Stats.mean (stats_of_some (List.map (fun (r, _, _) -> r) per_seed)));
              Table.cell_f (mean_of (fun (_, r, _) -> r) per_seed);
              string_of_int (List.fold_left (fun a (_, _, u) -> a + u) 0 per_seed);
            ])
          fault_envs
      in
      Table.add_row t (Printf.sprintf "%g" drop :: row))
    drops;
  t

(* ------------------------------------------------------------------ *)
(* The checker benches' shared stream                                  *)
(* ------------------------------------------------------------------ *)

type bench_stream = {
  run : Runtime.result;
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
  let run =
    Runtime.run (Runtime.configure ~n:8 ~seed:1 ~messages:(min_events / 2) ~trace:tr env protocol)
  in
  let events = Rdt_obs.Trace.events tr in
  let fail e = invalid_arg (Printf.sprintf "Experiments.%s: %s" who e) in
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
  { run; events; nev = List.length events; procs; baseline; check_s }

(* ------------------------------------------------------------------ *)
(* BENCH-ONLINE: amortized per-event cost of the incremental checker    *)
(* ------------------------------------------------------------------ *)

let table_online ?report ?(min_events = 5_000) () =
  (* online: the stream through a fresh engine, one event at a time *)
  let { run = r; nev; baseline; check_s = online_s; _ } =
    bench_stream ~who:"table_online" ~min_events
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
  (match report with
  | None -> ()
  | Some rp ->
      Bench_report.add rp ~table:"BENCH-ONLINE" ~protocol:"bhmr" ~env:"random" ~seed:1
        ~seconds:online_s;
      Bench_report.add_micro rp ~name:"online.ns_per_event" ~ns:ns_per_event;
      Bench_report.add_micro rp ~name:"online.offline_recheck_ns"
        ~ns:(1e9 *. offline_s);
      Bench_report.add_micro rp ~name:"online.speedup_vs_offline" ~ns:speedup);
  let t = Table.create ~header:[ "events"; "ns/event"; "offline check (ms)"; "speedup" ] in
  Table.add_row t
    [
      string_of_int nev;
      Table.cell_f ns_per_event;
      Table.cell_f (1e3 *. offline_s);
      Table.cell_f speedup;
    ];
  t

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

let table_durable ?report ?(min_events = 5_000) () =
  (* baseline: the same stream through a plain in-memory engine *)
  let { events; nev; procs = n; baseline; check_s = online_s; _ } =
    bench_stream ~who:"table_durable" ~min_events
  in
  (* durable: WAL every event, a snapshot generation every nev/8 *)
  let dir = scratch_path "rdt-durable-bench" "" in
  rm_rf dir;
  let config =
    { Rdt_durable.Session.default_config with Rdt_durable.Session.snapshot_every = max 1 (nev / 8) }
  in
  let t0 = Rdt_obs.Meter.now () in
  let s, _ = Rdt_durable.Session.open_ ~config ~dir ~n ~track_open:true () in
  List.iter (Rdt_durable.Session.observe s) events;
  Rdt_durable.Session.close s;
  let durable_s = Rdt_obs.Meter.now () -. t0 in
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
    | None -> invalid_arg "Experiments.table_durable: durable directory came back empty"
  in
  rm_rf dir;
  let durable_ns = 1e9 *. durable_s /. float_of_int (max 1 nev) in
  let online_ns = 1e9 *. online_s /. float_of_int (max 1 nev) in
  let overhead = durable_s /. Float.max 1e-9 online_s in
  (match report with
  | None -> ()
  | Some rp ->
      Bench_report.add rp ~table:"BENCH-DURABLE" ~protocol:"bhmr" ~env:"random" ~seed:1
        ~seconds:durable_s;
      Bench_report.add_micro rp ~name:"durable.ns_per_event" ~ns:durable_ns;
      Bench_report.add_micro rp ~name:"durable.overhead_vs_online" ~ns:overhead);
  let t =
    Table.create
      ~header:[ "events"; "ns/event durable"; "ns/event online"; "overhead"; "snapshots"; "tail replayed" ]
  in
  Table.add_row t
    [
      string_of_int nev;
      Table.cell_f durable_ns;
      Table.cell_f online_ns;
      Table.cell_f overhead;
      string_of_int snapshots;
      string_of_int replayed;
    ];
  t

(* ------------------------------------------------------------------ *)
(* BENCH-FUZZ: throughput of the adversarial scenario fuzzer            *)
(* ------------------------------------------------------------------ *)

let table_fuzz ?jobs ?report ?(budget = 80) () =
  let mapper = { Rdt_fuzz.Fuzzer.map = (fun f xs -> Pool.map ?jobs f xs) } in
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
        (Printf.sprintf "Experiments.table_fuzz: scenario #%d failed (%s): %s"
           f.Rdt_fuzz.Fuzzer.index
           (Rdt_fuzz.Exec.kind_name f.Rdt_fuzz.Fuzzer.kind)
           f.Rdt_fuzz.Fuzzer.detail));
  let c = rep.Rdt_fuzz.Fuzzer.counts in
  assert (c.Rdt_fuzz.Fuzzer.ok = budget);
  let per_sec = float_of_int budget /. Float.max 1e-9 seconds in
  (match report with
  | None -> ()
  | Some rp ->
      Bench_report.add rp ~table:"BENCH-FUZZ" ~protocol:"mixed" ~env:"mixed" ~seed:cfg.Rdt_fuzz.Fuzzer.seed
        ~seconds;
      Bench_report.add_micro rp ~name:"fuzz.scenarios_per_sec" ~ns:per_sec);
  let t = Table.create ~header:[ "scenarios"; "ok"; "scenarios/s" ] in
  Table.add_row t
    [ string_of_int rep.Rdt_fuzz.Fuzzer.scenarios; string_of_int c.Rdt_fuzz.Fuzzer.ok; Table.cell_f per_sec ];
  t

(* ------------------------------------------------------------------ *)
(* BENCH-SCALE: the sharded engine at n = 10^4                         *)
(* ------------------------------------------------------------------ *)

let table_scale ?jobs ?report ?(params = Scale.default_params) () =
  (match Scale.validate_params params with
  | Ok () -> ()
  | Error m -> invalid_arg ("Experiments.table_scale: " ^ m));
  let t0 = Rdt_obs.Meter.now () in
  let r = Scale.run ?jobs params in
  let seconds = Rdt_obs.Meter.now () -. t0 in
  let events_per_sec = float_of_int r.Scale.events /. Float.max 1e-9 seconds in
  let bytes_per_process = float_of_int r.Scale.payload_bytes /. float_of_int params.Scale.n in
  (match report with
  | None -> ()
  | Some rp ->
      Bench_report.add rp ~table:"BENCH-SCALE" ~protocol:"cbr" ~env:"ring"
        ~seed:params.Scale.seed ~seconds;
      Bench_report.add_micro rp ~name:"scale.events_per_sec" ~ns:events_per_sec;
      Bench_report.add_micro rp ~name:"scale.bytes_per_process" ~ns:bytes_per_process);
  let t =
    Table.create
      ~header:
        [ "n"; "messages"; "shards"; "events"; "forced"; "events/s"; "bytes/proc"; "checksum" ]
  in
  Table.add_row t
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
  t

(* ------------------------------------------------------------------ *)
(* BENCH-SERVE: multi-stream serving over the session wire protocol    *)
(* ------------------------------------------------------------------ *)

(* The full client/daemon path in-process: N clients stream the same
   recorded trace to an [Rdt_serve.Server] over a real Unix socket —
   framing, codec, backpressure, batched parallel apply — then query it
   live and say goodbye.  Doubles as a gate: every per-stream verdict
   must equal the serial [Online.check_trace] baseline. *)
let table_serve ?jobs ?report ?(streams = 4) ?(min_events = 4_000) () =
  let module Server = Rdt_serve.Server in
  let module Client = Rdt_serve.Client in
  let module W = Rdt_check.Session.Wire in
  let { events; nev; procs = n; baseline; _ } = bench_stream ~who:"table_serve" ~min_events in
  let socket = scratch_path "rdt-serve" ".sock" in
  let meter = Rdt_obs.Meter.default in
  let query_span () =
    match List.assoc_opt "serve.query" (Rdt_obs.Meter.spans meter) with
    | Some s -> s
    | None -> { Rdt_obs.Meter.calls = 0; seconds = 0. }
  in
  let span0 = query_span () in
  let mapper = { Server.map = (fun f xs -> Pool.map ?jobs f xs) } in
  let server = Server.create ~mapper ~meter (Server.default_config ~socket) in
  let t0 = Rdt_obs.Meter.now () in
  let clients = Array.init streams (fun _ -> Client.connect ~socket) in
  let inbox = Array.make streams [] in
  let pump_until pred =
    let budget = ref 1_000_000 in
    while not (pred ()) do
      decr budget;
      if !budget = 0 then invalid_arg "Experiments.table_serve: server made no progress";
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
  let rec rounds evs =
    match evs with
    | [] -> ()
    | _ ->
        let rec split k acc = function
          | rest when k = 0 -> (List.rev acc, rest)
          | [] -> (List.rev acc, [])
          | ev :: rest -> split (k - 1) (ev :: acc) rest
        in
        let frame, rest = split 256 [] evs in
        Array.iter (fun c -> Client.send c (W.Events frame)) clients;
        while Server.step server > 0 do
          ()
        done;
        Array.iteri (fun i c -> inbox.(i) <- inbox.(i) @ Client.poll c) clients;
        rounds rest
  in
  rounds events;
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
                invalid_arg "Experiments.table_serve: served summary diverged from baseline"
          | W.Answer { id = 1; answer = W.Cut None } ->
              invalid_arg "Experiments.table_serve: min-GCP query found no consistent cut"
          | W.Failed { error; _ } -> invalid_arg ("Experiments.table_serve: query failed: " ^ error)
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
                     "Experiments.table_serve: stream %d's verdict diverged from baseline" i)
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
  (match report with
  | None -> ()
  | Some rp ->
      Bench_report.add rp ~table:"BENCH-SERVE" ~protocol:"bhmr" ~env:"random" ~seed:1 ~seconds;
      Bench_report.add_micro rp ~name:"serve.events_per_sec" ~ns:events_per_sec;
      Bench_report.add_micro rp ~name:"serve.query_ns" ~ns:query_ns);
  let t =
    Table.create
      ~header:[ "streams"; "events/stream"; "events/s"; "queries"; "ns/query"; "rdt" ]
  in
  Table.add_row t
    [
      string_of_int streams;
      string_of_int nev;
      Table.cell_f events_per_sec;
      string_of_int queries;
      Table.cell_f query_ns;
      string_of_bool baseline.Rdt_check.Online.rdt;
    ];
  t

(* ------------------------------------------------------------------ *)
(* The suite: one ordered registry behind [run_all] and [run_tables]    *)
(* ------------------------------------------------------------------ *)

(* What a suite entry runs on.  [few_seeds] serves the tables whose
   cells are expensive enough that [run_all] gives them fewer seeds;
   [quick] shrinks the benches' fixed workloads. *)
type ctx = {
  jobs : int option;
  report : Bench_report.t option;
  seeds : int list;
  few_seeds : int list;
  quick : bool;
}

let heading title = Format.printf "@.== %s ==@." title

let print_table title f c =
  heading title;
  Table.print (f c)

(* Every figure and table in [run_all] order; the tables carry their
   [rdtsim table] name. *)
let suite =
  [
    (None, fun c -> print_figure (fig_random ?jobs:c.jobs ?report:c.report ~seeds:c.seeds ()));
    (None, fun c -> print_figure (fig_group ?jobs:c.jobs ?report:c.report ~seeds:c.seeds ()));
    ( None,
      fun c -> print_figure (fig_client_server ?jobs:c.jobs ?report:c.report ~seeds:c.seeds ()) );
    ( Some "protocols",
      print_table "TAB-PROTOCOLS: forced checkpoints per 100 basic (n=8)" (fun c ->
          table_protocols ?jobs:c.jobs ?report:c.report ~seeds:c.seeds ()) );
    ( Some "overhead",
      print_table "TAB-OVERHEAD: piggyback bits per message" (fun _ -> table_overhead ()) );
    ( Some "claim",
      fun c ->
        heading "CLAIM-10PCT: reduction of forced checkpoints vs FDAS";
        List.iter
          (fun (label, reduction) ->
            Format.printf "  %-22s %5.1f%%  %s@." label (100.0 *. reduction)
              (if reduction >= 0.10 then "(>= 10%: yes)" else "(>= 10%: no)"))
          (claim_ten_percent ?jobs:c.jobs ?report:c.report ~seeds:c.seeds ()) );
    ( Some "mingcp",
      print_table "TAB-MINGCP: Corollary 4.5 (on-the-fly minimum global checkpoint)" (fun c ->
          table_min_gcp ?jobs:c.jobs ?report:c.report ~seeds:c.few_seeds ()) );
    ( Some "ablation",
      print_table "ABLATION: predicate firings per variant (client-server, n=8)" (fun c ->
          table_ablation ?jobs:c.jobs ?report:c.report ~seeds:c.seeds ()) );
    ( Some "recovery",
      print_table "TAB-RECOVERY: useless checkpoints, domino and replay (client-server, n=6)"
        (fun c -> table_recovery ?jobs:c.jobs ?report:c.report ~seeds:c.few_seeds ()) );
    ( Some "coordinated",
      print_table "TAB-COORDINATED: coordinated snapshots vs CIC (random, n=8)" (fun c ->
          table_coordinated ?jobs:c.jobs ?report:c.report ~seeds:c.few_seeds ()) );
    ( Some "breakeven",
      print_table "BREAK-EVEN: checkpoint size above which bhmr beats fdas in total overhead"
        (fun c -> table_breakeven ?jobs:c.jobs ?report:c.report ~seeds:c.seeds ()) );
    (None, fun c -> print_figure (fig_lost_work ?jobs:c.jobs ?report:c.report ~seeds:c.seeds ()));
    ( Some "goodput",
      print_table "TAB-GOODPUT: online crash recovery, 3 crashes (random, n=6)" (fun c ->
          table_goodput ?jobs:c.jobs ?report:c.report ~seeds:c.few_seeds ()) );
    ( Some "faults",
      print_table
        "TAB-FAULTS: forced-checkpoint inflation and retransmission cost vs drop rate (bhmr, n=6)"
        (fun c -> table_faults ?jobs:c.jobs ?report:c.report ~seeds:c.few_seeds ()) );
    ( Some "online",
      print_table "BENCH-ONLINE: amortized per-event cost of the incremental checker (bhmr, n=8)"
        (fun c -> table_online ?report:c.report ()) );
    ( Some "durable",
      print_table "BENCH-DURABLE: cost of crash-safe checker state (WAL + snapshots, bhmr, n=8)"
        (fun c -> table_durable ?report:c.report ()) );
    ( Some "fuzz",
      print_table "BENCH-FUZZ: adversarial scenario fuzzer throughput (mixed protocols)" (fun c ->
          table_fuzz ?jobs:c.jobs ?report:c.report ~budget:(if c.quick then 40 else 80) ()) );
    ( Some "scale",
      fun c ->
        let params =
          if c.quick then { Scale.default_params with Scale.n = 1_000; messages = 100_000 }
          else Scale.default_params
        in
        heading
          (Printf.sprintf "BENCH-SCALE: sharded engine throughput (cbr, ring, n=%d)"
             params.Scale.n);
        Table.print (table_scale ?jobs:c.jobs ?report:c.report ~params ()) );
    ( Some "serve",
      print_table "BENCH-SERVE: multi-stream serving over the session wire protocol (bhmr, n=8)"
        (fun c ->
          table_serve ?jobs:c.jobs ?report:c.report ~min_events:(if c.quick then 2_000 else 4_000)
            ()) );
  ]

let table_names = List.filter_map fst suite

let run_entries ctx prints =
  let t0 = Rdt_obs.Meter.now () in
  List.iter (fun print -> print ctx) prints;
  Option.iter (fun r -> Bench_report.set_wall r (Rdt_obs.Meter.now () -. t0)) ctx.report;
  Format.print_flush ()

let run_all ?(quick = false) ?jobs ?report () =
  let seeds, few_seeds =
    if quick then (Experiment.quick_seeds, [ 1 ])
    else (Experiment.default_seeds, Experiment.quick_seeds)
  in
  run_entries { jobs; report; seeds; few_seeds; quick } (List.map snd suite)

let run_tables ?jobs ?report ~seeds names =
  let print name =
    match List.assoc_opt (Some name) suite with
    | Some print -> print
    | None -> invalid_arg ("Experiments.run_tables: unknown table " ^ name)
  in
  let prints = List.map print names in
  run_entries { jobs; report; seeds; few_seeds = seeds; quick = false } prints
