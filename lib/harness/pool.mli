(** A deterministic work-sharing pool for embarrassingly parallel grids.

    The experiment and bench harness decomposes every table/figure into
    independent {e cells} (protocol x environment x seed); {!map} runs one
    function per cell, sharding the cells over a [Domain] pool.

    {b Determinism.}  Tasks must be self-contained: each draws all its
    randomness from a seed derived from its own cell coordinates (see
    {!Rdt_dist.Rng.derive_seed}) and touches no shared mutable state.
    Results are written into the slot of the task's index, so the output
    list order — and, with deterministic tasks, its contents — is
    bit-identical for every [jobs] value, including [1].

    {b Exceptions.}  If tasks raise, the exception of the smallest task
    index is re-raised (with its backtrace) after all workers have
    joined, so failure behaviour is also independent of scheduling. *)

val cpu_count : unit -> int
(** Recommended worker count for this machine. *)

val default_jobs : unit -> int
(** The [RDT_JOBS] environment variable when set to a positive integer
    (clamped to [128]), else [1].  CLI entry points use this as the
    default of their [--jobs] flag so CI can exercise the parallel path
    without touching every call site. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [List.map f xs] computed by [min jobs
    (length xs)] workers.  [jobs] defaults to {!default_jobs}[ ()]; values
    [<= 1] run on the calling domain.  @raise Invalid_argument if a given
    [jobs] is [< 1]. *)

val map_timed : ?jobs:int -> ('a -> 'b) -> 'a list -> ('b * float) list
(** Like {!map}, but pairs each result with the wall-clock seconds its
    task took on its worker.  The timings are measurement, not output:
    they vary run to run even though the results do not. *)
