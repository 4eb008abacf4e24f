(** A process-wide counters / gauges / timer-span registry.

    Simulation phases (pattern construction, recovery, each offline
    checker) report wall-clock spans and aggregate counters here; the
    bench harness snapshots the registry into [BENCH_results.json] so
    every benchmark run carries a per-phase timing breakdown.

    Cells are [Atomic.t]-backed, and cell creation is guarded by a
    spin-lock, so reporting is safe from the harness's domain pool.
    Registries never write to [stdout]; recording into them cannot
    perturb deterministic CLI output. *)

type t

val now : unit -> float
(** Wall-clock seconds since the epoch ([Unix.gettimeofday]).  This is
    the {e one} sanctioned clock of the codebase: everything that needs a
    timestamp for measurement (pool slot timings, checker costs, grid
    wall-clock) reads it through here, so the [rdtlint] D1 rule can ban
    [Unix.gettimeofday]/[Sys.time] everywhere else.  Wall-clock readings
    are measurement, never output: they must not influence simulation
    results, which are a pure function of [(seed, params)]. *)

val create : unit -> t

val default : t
(** The registry the library instrumentation reports into. *)

(** {1 Recording} *)

val incr : t -> string -> unit
val add : t -> string -> int -> unit
(** Bump a counter, creating it at [0] on first use. *)

val set_gauge : t -> string -> int -> unit
(** Last-write-wins level value (distinguished from counters in dumps as
    [gauge:name]). *)

val add_span : t -> string -> float -> unit
(** Account [seconds] of wall-clock time (and one call) to span [name]. *)

val time : t -> string -> (unit -> 'a) -> 'a
(** [time t name f] runs [f ()], accounting its duration to span [name].
    The span is recorded even if [f] raises. *)

(** {1 Reading} *)

type span = { calls : int; seconds : float }

val counters : t -> (string * int) list
(** Counters and gauges (gauges prefixed [gauge:]), sorted by name. *)

val spans : t -> (string * span) list
(** Timer spans, sorted by name. *)
