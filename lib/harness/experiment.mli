(** Running and aggregating simulation experiments.

    A {!workload} bundles everything but the protocol and the seed; the
    figure-level ratio the paper reports — forced checkpoints of a
    protocol over forced checkpoints of FDAS — is computed {e paired}: the
    two protocols run on the same workload with the same seed, and the
    per-seed ratios are aggregated. *)

type workload = {
  name : string;
  make_env : unit -> Rdt_dist.Env.t;
  n : int;
  channel : Rdt_dist.Channel.spec;
  basic_period : int * int;
  max_messages : int;
  faults : Rdt_dist.Faults.spec;
  transport : Rdt_dist.Transport.params option;
}

val workload :
  ?n:int ->
  ?max_messages:int ->
  ?channel:Rdt_dist.Channel.spec ->
  ?basic_period:int * int ->
  ?faults:Rdt_dist.Faults.spec ->
  ?transport:Rdt_dist.Transport.params ->
  ?make_env:(unit -> Rdt_dist.Env.t) ->
  string ->
  workload
(** [workload name] builds a workload from the environment registry entry
    [name] (or [make_env] when supplied) with defaults matching
    {!Rdt_core.Runtime.default_config}.  Passing a non-[none] [faults]
    spec without [transport] selects {!Rdt_dist.Transport.default_params}
    so the run still delivers reliably. *)

val run_once : workload -> Rdt_core.Protocol.t -> seed:int -> Rdt_core.Runtime.result
(** One run.  @raise Invalid_argument on unknown environment names. *)

type aggregate = {
  forced : Stats.t;
  basic : Stats.t;
  messages : Stats.t;
  forced_per_basic : Stats.t;
  forced_per_message : Stats.t;
}

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
