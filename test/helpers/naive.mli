(** Naive reference implementations of the pattern-theoretic relations,
    written directly from the paper's definitions with no attention to
    complexity.  The test suite checks the optimised library code against
    these on randomly generated patterns. *)

(** {1 Global order} *)

module Logged : sig
  (** {!Rdt_pattern.Pattern.Builder} (every checkpoint [Basic], final
      checkpoints on) that also keeps the global sequence number of every
      event the way the builder itself once did: one counter, one list
      of gseqs per process. *)

  type b

  val create : n:int -> b
  val checkpoint : b -> Rdt_pattern.Types.pid -> int
  val send : b -> src:Rdt_pattern.Types.pid -> dst:Rdt_pattern.Types.pid -> int
  val recv : b -> int -> unit

  val finish : b -> Rdt_pattern.Pattern.t * int array array
  (** The pattern, and [gseqs.(i).(pos)] for each of its events. *)
end

val history_gseqs : Rdt_pattern.History.t -> int array array
(** Keys in the order of the global sequence numbers of
    [History.to_pattern h]'s events, from the history's own [seq]s: the
    initial checkpoints first, by pid; then the surviving entries by
    [seq]; then the final checkpoints, by pid. *)

val gseq_order :
  Rdt_pattern.Pattern.t ->
  gseqs:int array array ->
  (Rdt_pattern.Types.pid * int * Rdt_pattern.Types.event) array
(** Every event as [(pid, pos, event)], sorted by [gseqs.(pid).(pos)]:
    the sort {!Rdt_pattern.Pattern.iter_in_order} replaced. *)

(** {1 R-graph and TDVs} *)

val rgraph_successors : Rdt_pattern.Pattern.t -> int list array
(** The R-graph's adjacency as node lists, deduplicated with
    [List.sort_uniq] (node ids as {!Rdt_pattern.Rgraph.node_of_ckpt}). *)

val dense_tdvs : Rdt_pattern.Pattern.t -> Rdt_pattern.Types.ckpt_id -> int array
(** TDV replay on dense vectors with a fresh copy for every payload and
    every checkpoint. *)

(** {1 Reachability, chains, consistency} *)

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

val interval_reach :
  zigzag:bool -> Rdt_pattern.Pattern.t -> Rdt_pattern.Types.ckpt_id -> int array * bool array
(** [interval_reach ~zigzag pat (i, x)] is [(earliest, reached)] for the
    chains whose first message [P_i] sends in [I_{i,x}] (causal chains,
    or Z-paths with [~zigzag:true]): [reached.(id)] iff message [id] ends
    one, and [earliest.(j)] is the least delivery interval at [P_j] among
    those, [max_int] if none.  Breadth-first over the explicit message
    graph; the reference for {!Rdt_pattern.Chains.causal_from_interval}
    and {!Rdt_pattern.Chains.zpath_from_interval}. *)

val causally_precedes :
  Rdt_pattern.Pattern.t -> Rdt_pattern.Types.ckpt_id -> Rdt_pattern.Types.ckpt_id -> bool
(** [x < y] on one process; across processes, some causal chain whose
    first message is sent after [C_{i,x}] is delivered in an interval
    [<= y] of [P_j].  One breadth-first search per call. *)

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

(** {1 JSONL trace codec} *)

val trace_encode : Rdt_obs.Trace.event -> string
(** The [Printf] encoder {!Rdt_obs.Trace.encode} replaced; the two must
    agree byte for byte. *)

val trace_decode : string -> (Rdt_obs.Trace.event, string) result
(** The general path alone: {!Rdt_obs.Trace.Json.parse}, then
    {!Rdt_obs.Trace.of_json}. *)

val trace_read_file : string -> (Rdt_obs.Trace.event list, string) result
(** The reader {!Rdt_obs.Trace.read_file} replaced: the file as a list of
    lines ([In_channel.input_lines]), then {!trace_decode} of each line
    that is not blank after [String.trim]. *)

(** {1 Checksums} *)

val crc32_sub : string -> pos:int -> len:int -> int
(** IEEE CRC-32 one byte at a time over one 256-entry table: the loop
    the slicing-by-8 {!Rdt_obs.Codec.crc32_sub} replaced. *)
