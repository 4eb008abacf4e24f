(** RDT verification — one entry point, four algorithms.

    Verifies Theorem 4.4 on a concrete pattern: every R-path
    [C_{i,x} ~> C_{j,y}] of the rollback-dependency graph is on-line
    trackable, i.e. the transitive dependency vector recorded at [C_{j,y}]
    (recomputed offline by {!Rdt_pattern.Tdv}) satisfies
    [TDV_{j,y}.(i) >= x].

    {!run} selects between four independent verdicts:
    - [`Rgraph]: R-graph reachability vs TDV replay (the primary offline
      check, and the default);
    - [`Chains]: R-graph reachability vs direct causal-chain search,
      bypassing the TDV mechanism entirely;
    - [`Doubling]: the visible characterization — no undoubled
      causal-message Z-path;
    - [`Online]: the incremental engine ({!Rdt_check.Online}) streaming
      the pattern's events, maintaining reachability and TDV state
      event by event.

    The test suite asserts that all four agree on every pattern. *)

type violation = {
  from_ckpt : Rdt_pattern.Types.ckpt_id;
  to_ckpt : Rdt_pattern.Types.ckpt_id;
  tracked : int option;
      (** the TDV entry that should have been [>= x], when the checker
          computed one; [None] for the chain-search checker, which decides
          trackability without a TDV (printed as "no TDV witness", never as
          a fabricated entry) *)
}

(** What {!report.checked} counts: [`Rgraph], [`Chains] and [`Online]
    count rollback dependencies (one per checkpoint pair [(C_{j,y}, P_i)]
    with a real R-path); [`Doubling] enumerates causal-message paths, a
    different population.  The unit is carried in the report so the counts
    are never cross-compared or printed as if commensurable. *)
type units = R_dependencies | Cm_paths

type algo = [ `Rgraph | `Chains | `Doubling | `Online ]

type report = {
  algo : algo;  (** which algorithm produced this report *)
  rdt : bool;
  violations : violation list;  (** capped at {!max_reported} *)
  checked : int;  (** witness count, in {!units} *)
  units : units;
  first_violation : int option;
      (** [`Online] only: index of the pattern event at which the verdict
          first became violated; [None] for the offline algorithms (they
          have no event order) and for RDT patterns *)
  seconds : float;  (** wall-clock cost of this verdict *)
}

val max_reported : int

val run : ?algo:algo -> ?tdv:Rdt_pattern.Tdv.t -> Rdt_pattern.Pattern.t -> report
(** [run ~algo pat] verifies [pat] with the selected algorithm
    (default [`Rgraph]).  [tdv] can be supplied to reuse a replay (used
    by [`Rgraph] only).  [`Rgraph] is O((V+E)·k), where k is the number
    of nonzero entries per SCC vector of {!Rdt_pattern.Rgraph}; [`Online]
    is O(events) amortized. *)

val algo_name : algo -> string
(** ["rgraph"], ["chains"], ["doubling"], ["online"]. *)

val algo_of_string : string -> (algo, string) result
(** Inverse of {!algo_name} (case-insensitive; also accepts the legacy
    spellings ["rgraph_tdv"] and ["tdv"] for [`Rgraph]). *)

val all_algos : algo list
(** Every algorithm, in the order reports are conventionally printed. *)

val strict_gaps : Rdt_pattern.Pattern.t -> int
(** A probe into a definitional subtlety.  Definition 3.3 read literally
    asks for a causal chain starting in {e exactly} the interval
    [I_{i,x}] that the R-path leaves from; the TDV test
    ([TDV_{j,y}.(i) >= x]) is weaker — it is also satisfied when only a
    {e later} interval of [P_i] reaches [P_j] causally.  This function
    counts the [(C_{i,x}, P_j)] pairs where some Z-path leaves exactly
    [I_{i,x}] and reaches [P_j], but no causal chain from [I_{i,x}]
    arrives at or before the same interval.

    Measured fact (pinned by the test suite): the event-pattern protocols
    (cbr, nras, cas) keep this at zero, while the TDV family (fdas, bhmr,
    …) does not — their guarantee is exactly the vector-level one, which
    is what Corollary 4.5 and the recovery algorithms need. *)

val online_tdv_consistent : Rdt_pattern.Pattern.t -> bool
(** Every checkpoint whose on-line protocol vector was recorded carries
    exactly the vector the offline replay computes — i.e. the protocol's
    TDV maintenance is faithful. *)

val pp_report : Format.formatter -> report -> unit
