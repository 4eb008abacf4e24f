(** Naive reference implementations of the pattern-theoretic relations,
    written directly from the paper's definitions with no attention to
    complexity.  The test suite checks the optimised library code against
    these on randomly generated patterns. *)

val rgraph_edges :
  Rdt_pattern.Pattern.t -> (Rdt_pattern.Types.ckpt_id * Rdt_pattern.Types.ckpt_id) list
(** All R-graph edges, from Definition (Section 3.1), deduplicated. *)

val reaches :
  Rdt_pattern.Pattern.t -> Rdt_pattern.Types.ckpt_id -> Rdt_pattern.Types.ckpt_id -> bool
(** Reflexive-transitive closure of {!rgraph_edges}, by plain DFS. *)

val max_reaching_index :
  Rdt_pattern.Pattern.t -> from_pid:Rdt_pattern.Types.pid -> Rdt_pattern.Types.ckpt_id -> int
(** The largest [x] with [reaches pat (from_pid, x) c], or [-1] if there
    is none: the checker's x*, by one {!reaches} per candidate index. *)

val max_reaching_indices : Rdt_pattern.Pattern.t -> Rdt_pattern.Types.ckpt_id -> int array
(** [max_reaching_indices pat c] is {!max_reaching_index} for every
    process at once, by one backward DFS from [c] over {!rgraph_edges}.
    Apply it to [pat] once: the partial application builds the
    predecessor table, so a whole-pattern check stays O(V·(V+E)). *)

val zigzag :
  Rdt_pattern.Pattern.t -> Rdt_pattern.Types.ckpt_id -> Rdt_pattern.Types.ckpt_id -> bool
(** Netzer-Xu zigzag, by DFS over the explicit message graph
    (edge [m -> m'] iff [dst m = src m'] and
    [recv_interval m <= send_interval m']). *)

val causal_chain :
  Rdt_pattern.Pattern.t -> from_pos_after:int -> src:int -> Rdt_pattern.Types.ckpt_id -> bool
(** Is there a causal message chain whose first message is sent by [src]
    at a position [> from_pos_after], delivered to the target process in
    an interval [<= y]?  DFS over the causal message graph (edge iff
    [recv_pos m < send_pos m'] on the same process). *)

val trackable :
  Rdt_pattern.Pattern.t -> Rdt_pattern.Types.ckpt_id -> Rdt_pattern.Types.ckpt_id -> bool
(** Reference for {!Rdt_pattern.Chains.trackable} /
    {!Rdt_pattern.Tdv.trackable}. *)

val consistent_global : Rdt_pattern.Pattern.t -> int array -> bool
(** Reference orphan check, directly from Definition 2.2. *)

val all_global_checkpoints : Rdt_pattern.Pattern.t -> int array Seq.t
(** Every index vector (exponential; small patterns only). *)

val min_gcp : Rdt_pattern.Pattern.t -> Rdt_pattern.Types.ckpt_id -> int array option
(** Exhaustive minimum consistent global checkpoint containing the
    checkpoint; also asserts the lattice (min-closure) property along the
    way.  Small patterns only. *)

val max_gcp : Rdt_pattern.Pattern.t -> Rdt_pattern.Types.ckpt_id -> int array option
