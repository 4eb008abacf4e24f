(** Sharded discrete-event substrate with a deterministic cross-shard merge.

    Splits one logical event queue into [shards] independent
    {!Event_queue}s so a driver can process shards in parallel, while
    keeping the observable execution {e bit-identical for any worker
    count}.  The construction is conservative parallel discrete-event
    simulation in lockstep epochs:

    - [lookahead] is the minimum latency of any cross-shard message.
      Each round, the global horizon advances to [m + lookahead] where
      [m] is the earliest pending event anywhere, and every shard may
      safely process all of its events strictly below the horizon —
      no message generated this round can arrive below it.
    - Within a shard, events pop in deterministic [(time, insertion
      seq)] order, exactly as in the unsharded engine.
    - Cross-shard messages go to per-(src, dst) outboxes and are merged
      into their destination queues only at the {!exchange} barrier,
      sorted by [(arrival time, seed-derived shard tiebreak, emission
      seq)].  The tiebreak comes from {!Rng.derive_seed} on the shard
      index, so the merge order is a pure function of [(seed, messages)]
      — never of scheduling, worker count, or arrival interleaving.

    The driver loop (see [Rdt_harness.Scale]) is:
    {[
      while not (Shard.finished t) do
        Shard.exchange t;                   (* barrier: route + advance *)
        (* for each shard, in parallel: *)  (* no shared mutable state  *)
        ignore (Shard.step t ~shard ~handler);
      done
    ]}
    [step] on distinct shards touches disjoint state, so the per-epoch
    fan-out can run on the domain pool unchanged. *)

type 'a t

val create : shards:int -> seed:int -> lookahead:int -> unit -> 'a t
(** [lookahead] must be [>= 1]: it is the caller's promise that no
    cross-shard message travels faster (checked at every {!post}).
    @raise Invalid_argument if [shards < 1] or [lookahead < 1]. *)

val schedule : 'a t -> shard:int -> time:int -> 'a -> unit
(** Enqueue a local event on [shard].  Callable while seeding the
    simulation, or from a handler {e for the shard being stepped}. *)

val post : 'a t -> src:int -> dst:int -> time:int -> 'a -> unit
(** Emit a cross-shard message from inside a handler running on shard
    [src].  It is held in the (src, dst) outbox until the next
    {!exchange}.  @raise Invalid_argument if [time] is below the current
    horizon — that would break the conservative-lookahead contract. *)

val exchange : 'a t -> unit
(** Barrier: deterministically merge every outbox into its destination
    queue and advance the horizon to (earliest pending event) +
    [lookahead].  Must not run concurrently with {!step}. *)

val step : 'a t -> shard:int -> handler:(time:int -> 'a -> unit) -> int
(** Process every event of [shard] with time below the current horizon,
    in (time, insertion) order; returns the number handled.  The handler
    may {!schedule} onto its own shard (at any time [>= now]) and {!post}
    to others.  Safe to call concurrently for distinct shards. *)

val finished : 'a t -> bool
(** No pending events in any queue and no messages in any outbox. *)

val total_stepped : 'a t -> int
(** Events handled by {!step} since creation, summed over shards
    (read at a barrier, not during a parallel step). *)
