(** Machine-readable performance record of an experiment/bench grid.

    Every run of the grid (see {!Experiments} and [bench/main.ml]) can
    collect one of these: per-cell wall-clock timings keyed by the cell's
    coordinates (table, protocol, environment, seed), the grid wall-clock,
    and optionally the micro-benchmark estimates.  [BENCH_results.json]
    (written by {!write}) is the perf trajectory future changes are
    measured against — see EXPERIMENTS.md.

    The timings are measurements, not simulation output: they vary from
    run to run while the tables stay bit-identical. *)

type cell = { table : string; protocol : string; env : string; seed : int; seconds : float }

type t

val create : jobs:int -> t

val add : t -> table:string -> protocol:string -> env:string -> seed:int -> seconds:float -> unit
(** Record one cell.  Cells are kept in insertion order, which for a grid
    run is the deterministic cell order — parallel and sequential runs of
    the same grid record the same cell sequence (timings aside). *)

val add_micro : ?r_square:float -> t -> name:string -> ns:float -> unit
(** Record one micro-benchmark estimate (ns per run), with the r² of its
    fit when it comes from a regression; derived figures have none. *)

val set_wall : t -> float -> unit
(** Total wall-clock of the grid, timed by the caller around the whole
    run (not the sum of cell times: cells overlap under parallelism). *)

val wall : t -> float

val record_obs : t -> unit
(** Snapshot the metrics registry {!Rdt_obs.Meter.default} into the
    report: per-phase timer spans ([runtime.sim],
    [runtime.pattern], [checker.*], [runtime.recovery], ...) and aggregate
    counters, rendered as the [phases] and [counters] JSON sections.
    Call once, after the grid finishes. *)

val cells : t -> cell list
(** In insertion (grid) order. *)

val write : string -> t -> unit
(** [write path t] writes the report as JSON to [path]. *)
