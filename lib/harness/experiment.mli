(** Seeds and paired ratios of the experiment grids.

    A workload is a {!Rdt_core.Runtime.config}; a cell runs it as
    [Runtime.run { w with protocol; seed }].  The figure-level ratio the
    paper reports — forced checkpoints of a protocol over forced
    checkpoints of FDAS — is computed {e paired}: the two protocols run on
    the same workload with the same seed, and the per-seed ratios are
    aggregated. *)

val forced_ratio : Rdt_core.Runtime.result -> Rdt_core.Runtime.result -> float option
(** [forced_ratio r baseline] is the paired ratio forced(r)/forced(baseline)
    of two runs on one seed; [None] when the baseline forced nothing. *)

val default_seeds : int list
(** Seeds used by the shipped experiments: [1..10]. *)

val quick_seeds : int list
(** [1..3], for smoke-level reproduction runs. *)

val cell_seed : string list -> int -> int
(** [cell_seed path seed] is the RNG seed of one cell of an experiment
    grid, derived from the cell's coordinates (e.g. [\["TAB-PROTOCOLS";
    env\]]) and the base seed by {!Rdt_dist.Rng.derive_seed}.  The
    derivation never consults shared generator state, so a cell's stream
    is the same whether the grid runs sequentially or sharded across a
    {!Pool} — the keystone of the bit-identical [--jobs N] guarantee.
    Cells that must stay {e paired} (a protocol against its baseline, a
    faulty run against the reliable run of the same workload) share one
    [path], so they keep drawing identical streams. *)
