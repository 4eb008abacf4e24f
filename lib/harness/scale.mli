(** The scaled engine: an n = 10^4-class CIC simulation on the sharded
    event core.

    Runs a communication-induced-checkpointing workload — ring-local
    traffic under NRAS (no receive after send: a process that has sent
    in its current interval takes a forced checkpoint before its next
    delivery), the purely local rule that keeps every pattern RDT — over
    {!Rdt_dist.Shard}, with processes mapped to shards in contiguous
    blocks and every per-process structure sparse (a {!Rdt_dist.Vclock}
    transitive dependency vector piggybacked on every message).
    Everything a run prints or returns is a pure function of {!params}:
    the shard count is derived from [n] (never from [jobs]), every
    process draws from its own {!Rdt_dist.Rng.derive_seed} stream, and
    cross-shard merges are ordered by the seeded tiebreak — so results
    are bit-identical for every [jobs] value.  This is the BENCH-SCALE
    workhorse (events/sec, bytes/process at n = 10_000, 10^6 messages)
    and, at small [n], a trace source the offline checkers can audit. *)

type params = {
  n : int;  (** processes (>= 2) *)
  messages : int;  (** total messages sent across the run (>= 0) *)
  seed : int;
}
(** Destinations are ring neighbours within 8 hops, and every process
    takes a basic checkpoint every 8 sends. *)

val default_params : params
(** n = 10_000, messages = 1_000_000, seed = 1. *)

val validate_params : params -> (unit, string) result

type result = {
  shards : int;
  events : int;  (** events handled by the sharded core *)
  sent : int;
  delivered : int;
  ckpts_basic : int;
  ckpts_forced : int;
  final_time : int;  (** simulated clock when the queues drained *)
  payload_entries : int;  (** total nonzero vclock entries piggybacked *)
  payload_bytes : int;  (** wire-size estimate of those sparse payloads *)
  checksum : int;  (** digest of every final process vector; the
                       bit-identical-across-jobs witness *)
}

val pp_result : Format.formatter -> result -> unit
(** Deterministic rendering of every field (no timings): two runs that
    print identically are observably identical. *)

val run : ?jobs:int -> params -> result
(** Execute the workload on [jobs] domains (default 1).
    @raise Invalid_argument on invalid params. *)

val run_traced : params -> result * Rdt_pattern.Pattern.t
(** Sequential run that also materializes the checkpoint-and-
    communication pattern for the offline checkers ({!Rdt_core.Checker})
    — the differential witness that the sharded engine produces real,
    checkable executions.  The pattern is recorded in handling order,
    one shard's epoch after another, cross-shard deliveries included.
    Memory is O(events): use small [n].  The result equals {!run}'s for
    the same params. *)
