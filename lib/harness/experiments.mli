(** The shipped experiment suite: one entry per table/figure of the
    paper's evaluation (see DESIGN.md for the experiment index and
    EXPERIMENTS.md for paper-vs-measured numbers).

    Every experiment both returns its data and can print a plain-text
    report.  [R] always denotes the paired ratio
    forced(protocol) / forced(FDAS) on identical workload and seed.

    Every grid decomposes into independent cells (one key x one base
    seed) sharded across a {!Pool} when [?jobs] exceeds 1.  Cell
    RNG seeds come from {!Experiment.cell_seed}, a pure function of the
    cell coordinates, so the produced tables are bit-identical for every
    [jobs] value (and to a sequential run).  Paired runs — a protocol
    against its FDAS baseline, a faulty run against its reliable twin —
    happen inside one cell on one derived seed, preserving the paired
    design under parallelism.  Pass [?report] to collect per-cell wall
    times into a {!Bench_report}. *)

type point = { x : float; stats : Stats.t }

type series = { label : string; points : point list }

type figure = { id : string; title : string; xlabel : string; series : series list }

(** {1 Figures} *)

val fig_random : ?jobs:int -> ?report:Bench_report.t -> ?seeds:int list -> unit -> figure
(** FIG-RANDOM: R vs number of processes in the general (uniform random)
    environment, for bhmr, bhmr-v1, bhmr-v2. *)

val fig_group : ?jobs:int -> ?report:Bench_report.t -> ?seeds:int list -> unit -> figure
(** FIG-8: R vs group size in overlapping group communication
    environments (n = 12). *)

val fig_client_server : ?jobs:int -> ?report:Bench_report.t -> ?seeds:int list -> unit -> figure
(** FIG-9: R vs number of servers in the client-server chain. *)

val fig_lost_work : ?jobs:int -> ?report:Bench_report.t -> ?seeds:int list -> unit -> figure
(** FIG-LOST-WORK (extension): fraction of all executed events undone by
    a crash of process 0 at 60% of the run, as a function of the mean
    basic-checkpoint period, for [none], [bcs] and [bhmr] (random
    workload, n = 6).  Uncoordinated checkpointing wastes its checkpoints
    (the recovery line ignores them); the protocols keep lost work
    proportional to the checkpoint period. *)

(** {1 Tables} *)

val table_protocols : ?jobs:int -> ?report:Bench_report.t -> ?seeds:int list -> unit -> Table.t
(** TAB-PROTOCOLS: forced checkpoints per 100 basic checkpoints for every
    protocol of the hierarchy, in each environment (n = 8). *)

val table_overhead : ?ns:int list -> unit -> Table.t
(** TAB-OVERHEAD: piggyback size (bits/message) per protocol vs n. *)

val claim_ten_percent : ?jobs:int -> ?report:Bench_report.t -> ?seeds:int list -> unit -> (string * float) list
(** CLAIM-10PCT: per environment, the measured reduction
    [1 - R(bhmr vs fdas)].  The paper claims at least 10% in its study;
    see EXPERIMENTS.md for where our reproduction meets it. *)

val table_recovery : ?jobs:int -> ?report:Bench_report.t -> ?seeds:int list -> unit -> Table.t
(** TAB-RECOVERY (extension): what the guarantees buy at recovery time.
    For [none], [bcs], [fdas] and [bhmr] on a chatty workload: the
    fraction of useless checkpoints (members of no consistent global
    checkpoint), and — after crashing process 0 in the middle of the run —
    the fraction of their work the {e survivors} lose, the in-transit
    messages a logging layer must replay, and the events to re-execute. *)

val table_breakeven : ?jobs:int -> ?report:Bench_report.t -> ?seeds:int list -> unit -> Table.t
(** BREAK-EVEN (extension): when is the protocol's n² piggyback worth it?
    Total overhead is modelled as [piggyback_bits × messages +
    checkpoint_cost × forced]; the table reports, per environment (n = 8),
    the forced-checkpoint savings of bhmr over FDAS, the extra piggyback
    it pays, and the break-even checkpoint size above which bhmr's total
    overhead is lower. *)

val table_faults : ?jobs:int -> ?report:Bench_report.t -> ?seeds:int list -> unit -> Table.t
(** TAB-FAULTS (extension): robustness of the protocol stack to an
    unreliable network.  For bhmr over the reliable-delivery transport
    (n = 6), per packet-drop rate and environment: the paired
    forced-checkpoint inflation [forced(faulty)/forced(reliable)], the
    retransmissions per application message, and the messages abandoned
    as undeliverable (0 at these rates).  The drop = 0 row isolates the
    effect of the transport's FIFO links alone. *)

(** {1 Everything} *)

val run_all : ?quick:bool -> ?jobs:int -> ?report:Bench_report.t -> unit -> unit
(** Prints every figure and table, each under its [== ID: title ==]
    heading.  [quick] uses 3 seeds instead of 10 (1 instead of 3 for the
    tables that default to {!Experiment.quick_seeds}) and smaller bench
    workloads.  With [?report], also records the suite's wall-clock. *)

val table_names : string list
(** The [rdtsim table] names of the tables, in the order {!run_all}
    prints them.  The figures have no name. *)

val run_tables : ?jobs:int -> ?report:Bench_report.t -> seeds:int list -> string list -> unit
(** [run_tables ~seeds names] prints the named tables in the given order,
    each under its {!run_all} heading, running every grid on [seeds].
    The benches run their full-size workloads.  With [?report], also
    records the wall-clock of the whole call.
    @raise Invalid_argument on a name not in {!table_names}, before
    printing anything. *)
