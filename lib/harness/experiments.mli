(** The shipped experiment suite: one entry per table/figure of the
    paper's evaluation (see DESIGN.md for the experiment index and
    EXPERIMENTS.md for paper-vs-measured numbers).

    Every entry returns its data, and {!run} prints it under the entry's
    [== ID: title ==] heading.  [R] always denotes the paired ratio
    forced(protocol) / forced(FDAS) on identical workload and seed.

    Every grid decomposes into independent cells (one key x one base
    seed) sharded across a {!Pool} when [jobs] exceeds 1.  Cell RNG
    seeds come from {!Experiment.cell_seed}, a pure function of the cell
    coordinates, so the produced tables are bit-identical for every
    [jobs] value (and to a sequential run).  Paired runs — a protocol
    against its FDAS baseline, a faulty run against its reliable twin —
    happen inside one cell on one derived seed, preserving the paired
    design under parallelism.  With a [report], every cell's wall time
    lands in that {!Bench_report}. *)

type point = { x : float; stats : Stats.t }

type series = { label : string; points : point list }

type figure = { xlabel : string; series : series list }

type ctx = {
  jobs : int option;  (** worker domains; 1 when [None] *)
  report : Bench_report.t option;
  seeds : int list;  (** the base seeds of every grid *)
  quick : bool;  (** smaller bench workloads *)
}
(** What an entry runs on. *)

type output =
  | Figure of figure
  | Table of Table.t
  | Claim of (string * float) list
      (** CLAIM-10PCT: per environment, the measured reduction
          [1 - R(bhmr vs fdas)]. *)

type entry = {
  id : string;  (** e.g. [TAB-PROTOCOLS], as in DESIGN.md's index *)
  title : quick:bool -> string;
  name : string option;  (** its [rdtsim table] name; figures have none *)
  few_seeds : bool;
      (** a grid expensive enough that {!run} gives it fewer seeds by
          default *)
  run : ctx -> output;
}

val entries : entry list
(** Every figure and table, in the order {!run} prints them. *)

val find : string -> entry
(** The entry with this id or [rdtsim table] name.
    @raise Invalid_argument on any other string. *)

val run :
  ?quick:bool -> ?jobs:int -> ?report:Bench_report.t -> ?seeds:int list -> entry list -> unit
(** Prints the entries in the given order, each under its
    [== ID: title ==] heading.  Every grid runs on [seeds] when given;
    otherwise on 10 seeds, and on 3 for the [few_seeds] entries, or with
    [quick] on 3 and 1.  [quick] also shrinks the benches' workloads.
    With [report], also records the wall-clock of the whole call. *)
