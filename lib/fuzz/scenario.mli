(** The fuzzer's scenario DSL: one value describes one complete
    adversarial run.

    A scenario composes a workload pick from {!Rdt_workloads.Registry},
    a protocol choice, a channel-delay model, a network-fault schedule
    ({!Rdt_dist.Faults}: drop/dup/reorder, partition windows and
    intermittent mobile-style links), and a crash/recovery schedule —
    everything {!Rdt_core.Runtime} needs to execute it.  {!generate} derives a scenario
    deterministically from a single seed via {!Rdt_dist.Rng.derive_seed},
    so the whole fuzz campaign is a pure function of its base seed.

    Scenarios serialize to single-line JSON (read back with
    {!Rdt_obs.Trace.Json}) so a shrunk counterexample is a committable,
    replayable artifact. *)

type crash = Rdt_core.Runtime.crash = { victim : int; at : int; repair_delay : int }

type t = {
  run_seed : int;  (** the runtime's RNG seed *)
  n : int;
  protocol : string;  (** {!Rdt_core.Registry} name *)
  env : string;  (** {!Rdt_workloads.Registry} name *)
  messages : int;  (** application message budget *)
  basic_period : int * int;
  channel : Rdt_dist.Channel.spec;
  faults : Rdt_dist.Faults.spec;
  transport : bool;
      (** route messages through the reliable-delivery transport; forced
          [true] whenever [faults] is non-none *)
  retx_timeout : int;
  max_retx : int;
  crashes : crash list;  (** in increasing [at] order *)
}

(** {1 The search space}

    One space for every campaign, so a seed draws the same scenarios at
    every commit.  Besides these bounds, a scenario injects network
    faults with probability 0.6 and schedules crashes with probability
    0.5. *)

val protocols : string list
(** Every protocol with an RDT guarantee, in {!Rdt_core.Registry} order. *)

val envs : string list
(** Every {!Rdt_workloads.Registry} environment. *)

val max_n : int
(** 6: processes are drawn in [\[2; max_n\]]. *)

val max_messages : int
(** 150: message budgets are drawn in [\[20; max_messages\]]. *)

val generate : seed:int -> t
(** Deterministic: every draw comes from a SplitMix64 stream keyed by
    [Rng.derive_seed seed "fuzz.scenario"]; the embedded [run_seed] is
    keyed separately, so the scenario's shape and its run randomness are
    independent. *)

val validate : t -> (unit, string) result
(** Everything the runtimes would reject, checked up front: [n >= 2],
    known protocol and env names, positive budgets, well-formed fault
    spec ({!Rdt_dist.Faults.validate}), transport present when faults
    are, ordered non-overlapping crashes with valid victims. *)

val size : t -> int
(** Primary structural size, the shrinker's main objective: message
    budget, process count, and a weight per crash, fault window and
    fault dimension. *)

val measure : t -> int * int
(** [(size, schedule mass)] — the lexicographic shrink measure.  The
    second component sums crash times, repair delays, window endpoints
    and the basic-checkpoint period, so moves that only bisect times
    (leaving the structure alone) still strictly decrease the measure. *)

val restrict : t -> n:int -> t
(** Project the scenario onto the first [n] processes: crashes of
    removed victims are dropped, removed pids leave partition groups,
    and intermittent links of removed hosts disappear. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

(** {1 Codec} *)

val to_file : string -> t -> unit

val of_file : string -> (t, string) result
