(** Incremental (event-streaming) RDT verification.

    The offline checkers in [Rdt_core.Checker] rebuild the full R-graph
    and re-run a whole-graph analysis for every verdict.  This engine is
    the on-line counterpart the paper's trackability notion calls for: it
    consumes one event at a time — live from a {!Rdt_obs.Trace} observer
    hooked into a run, streamed from a recorded JSONL trace, or replayed
    from a finished pattern — and maintains the R-graph, per-checkpoint
    reachability (one sparse vector per checkpoint: for each process, the
    largest index with an R-path to it) and the TDV replay, so that after
    {e every} event it answers
    {!rdt_so_far}, {!zcycle} and {!trackable} without an O(graph)
    recheck.

    {b Verdict semantics.}  After any prefix of events, {!rdt_so_far}
    equals the offline verdict on the pattern that prefix would produce —
    including the Final checkpoints [Pattern.Builder.finish] appends to
    intervals that contain events.  The engine models those as per-process
    {e open} nodes whose TDV snapshot is the live vector.

    {b Rollbacks.}  On a [Rollback] trace event the engine retracts: it
    keeps a {!Rdt_pattern.History} of surviving entries (the one
    {!Rdt_obs.Replay.rebuild} folds a trace into), pops it back to the
    rolled-back checkpoint, and rebuilds the incremental state from the
    survivors in [seq] order.  Replayed deliveries then arrive as fresh
    [Deliver] events.

    {b Complexity.}  Each R-edge joins its source's max-reach vector into
    its target's (one merged pass over two sparse vectors, at most n
    entries each), and a node is re-queued only when an entry of its
    vector rose; a node's whole reach state is O(n).  Add O(n) flag
    checks per event, and for each
    process the event touched one paired walk of its open interval's
    max-reach against its live vector.  A send copies the sender's
    vector only if it changed since the last copy.  Rollbacks cost one
    rebuild of the surviving prefix. *)

exception Inconsistent of string
(** The event stream is not a consistent run (delivery of an unknown,
    undeliverable or already delivered message, checkpoint index out of
    order, rollback to a missing checkpoint, ...).  The same exception as
    {!Rdt_pattern.History.Inconsistent}. *)

type t

val create : ?track_open:bool -> n:int -> unit -> t
(** A fresh engine over processes [0..n-1], each with its initial
    checkpoint [C_{i,0}] already taken (builder semantics).
    [track_open] (default [true]) counts would-be Final checkpoints of
    event-carrying open intervals in the verdict — the right setting for
    live streams, where finals are never traced.  Pass [false] to judge
    exactly the checkpoints that exist (used to check finished
    patterns). *)

(** {1 Feeding events} *)

val observe : t -> Rdt_obs.Trace.event -> unit
(** Apply one trace event.  [Meta], [Verdict], [Retransmit], [Drop] and
    [Replay] are transport noise or annotations with no pattern effect;
    initial checkpoints are already taken.  Every observed event counts
    toward {!events_seen} and the {!first_violation} index.
    @raise Inconsistent on streams no run could have produced. *)

val observer : t -> Rdt_obs.Trace.t
(** [observer t] is a trace recorder feeding [t], for use with
    [Trace.tee]: hook the engine into any traced run without the
    instrumentation sites knowing. *)

(** {1 Per-event queries (amortized near-constant)} *)

val rdt_so_far : t -> bool
(** Offline-equivalent RDT verdict of everything seen so far. *)

val first_violation : t -> int option
(** Index (into the observed events, 0-based) of the event at which
    {!rdt_so_far} first became false; latched — a later rollback that
    removes the offending dependency does not unset it. *)

val zcycle : t -> bool
(** Whether the R-graph seen so far contains a Z-cycle (a checkpoint on a
    nontrivial cycle).  RDT patterns never do (Theorem 4.4 ⟹ acyclic). *)

val trackable : t -> Rdt_pattern.Types.ckpt_id -> Rdt_pattern.Types.ckpt_id -> bool
(** [trackable t (i, x) (j, y)]: does the dependency knowledge recorded
    so far track an [C_{i,x} ~> C_{j,y}] dependency — [x <= y] for
    [i = j], [TDV_{j,y}.(i) >= x] otherwise.  For [y] the owner's open
    interval this uses the live vector.  @raise Invalid_argument if a
    checkpoint does not exist. *)

val reaches : t -> Rdt_pattern.Types.ckpt_id -> Rdt_pattern.Types.ckpt_id -> bool
(** R-graph reachability (reflexive, like [Rgraph.reaches]). *)

val in_cycle : t -> Rdt_pattern.Types.ckpt_id -> bool

(** {1 State and reports} *)

val n : t -> int

val track_open : t -> bool
(** Whether open intervals count as Final checkpoints ({!create}). *)

val events_seen : t -> int

val num_checkpoints : t -> int
(** Checkpoints taken so far (excluding open intervals), initials
    included. *)

val rebuilds : t -> int
(** Rollback-triggered state rebuilds so far. *)

val history : t -> Rdt_pattern.History.t
(** The surviving history the engine keeps; read it, don't mutate it. *)

val orphan_messages : t -> int list
(** Surviving deliveries whose send was rolled back or abandoned.  A
    rollback cascade is observed one process at a time, so between the
    sender's rollback and the receiver's the state is transiently
    inconsistent; the offending deliveries are excluded from the verdict
    until the receiver rolls back past them.  A stream that {e ends} with orphans
    is inconsistent ({!check_trace} rejects it, like
    [Replay.rebuild]). *)

val checked : t -> int
(** Rollback dependencies established so far — pairs [(C_{j,y}, P_i)]
    with a real R-path; matches the offline checkers' [checked] count. *)

type violation = {
  from_ckpt : Rdt_pattern.Types.ckpt_id;
  to_ckpt : Rdt_pattern.Types.ckpt_id;
  tracked : int;  (** the TDV entry that should have been [>= x] *)
}

val violations : t -> violation list
(** All currently-violated dependencies, strongest witness per pair, in
    the offline checkers' report order. *)

type summary = {
  events : int;
  checkpoints : int;
  rdt : bool;
  first_violation : int option;
  zcycle : bool;
  rebuilds : int;
}

val summary : t -> summary

val pp_summary : Format.formatter -> summary -> unit

(** {1 Durable state}

    The engine's durable image is its {e history}, never its graphs: the
    {!Rdt_pattern.History} of surviving entries (the structure the
    rollback rebuild replays) with its message routing and abandonment
    tables, and the latched scalars.  {!restore} reconstructs the
    incremental R-graph / max-reach vectors / TDV-witness
    state by running the rollback-rebuild path over the exported
    survivors, so restored state can never drift from what a live engine
    would hold — there is one source of truth.  [Rdt_durable.Snapshot]
    gives these a versioned, CRC-checked binary codec. *)

module Export : sig
  type t = {
    n : int;
    track_open : bool;
    events_seen : int;
    first_violation : int option;
    rebuilds : int;
    stacks : Rdt_pattern.History.entry list array;
        (** per process, oldest first; an entry's [seq] is the global
            observed-event index *)
    routes : (int * int * int) list;  (** [(msg, src, dst)], sorted by [msg] *)
    undeliverable : int list;  (** abandoned message ids, sorted *)
  }
end

val export : t -> Export.t
(** A deterministic, self-contained image of the engine's state: two
    engines with equal exports answer every query identically. *)

val restore : Export.t -> t
(** Rebuild a live engine from an export.  The result's {!summary},
    {!violations}, {!first_violation}, {!orphan_messages} and every
    query equal the exporting engine's at export time.
    @raise Inconsistent if the export is internally inconsistent (no
    run could have produced it). *)

(** {1 Whole-input drivers} *)

val check_pattern : Rdt_pattern.Pattern.t -> t
(** Stream a finished pattern's events through a fresh engine
    ([track_open = false]); the resulting verdict, violations and
    [checked] count equal the offline checkers' on the same pattern. *)

val trace_process_count : Rdt_obs.Trace.event list -> (int, string) result
(** {!Rdt_obs.Replay.process_count}: the [Meta] header's [n], or the
    largest pid mentioned plus one.  Errors on an empty trace. *)

val check_trace : Rdt_obs.Trace.event list -> (t, string) result
(** Stream a recorded trace ([track_open = true]); process count from the
    [Meta] header, or inferred.  Errors on inconsistent streams; a
    stream that ends mid-rollback-cascade reports {e all} orphaned
    message ids, like [Replay.rebuild]. *)
