(** Rollback-dependency graphs (R-graphs), Section 3.1 of the paper.

    Nodes are the local checkpoints of a pattern.  There is an edge
    [C_{i,x} -> C_{j,y}] iff
    - [i = j] and [y = x + 1] (program order), or
    - [i <> j] and some message is sent in [I_{i,x}] and delivered in
      [I_{j,y}].

    An R-path [C_{i,x} ~> C_{j,y}] means: if [P_i] rolls back to a
    checkpoint preceding [C_{i,x}], then [P_j] must roll back to a
    checkpoint preceding [C_{j,y}].  R-graphs may contain cycles (e.g. two
    crossing messages), so reachability goes through a strongly-connected
    component condensation. *)

type t

type node = int
(** Dense node identifier; see {!node_of_ckpt}/{!ckpt_of_node}. *)

val build : Pattern.t -> t
(** Builds the R-graph of a pattern.  O(V + M). *)

val num_nodes : t -> int

val node_of_ckpt : t -> Types.ckpt_id -> node
(** @raise Invalid_argument if the checkpoint does not exist. *)

val ckpt_of_node : t -> node -> Types.ckpt_id

val successors : t -> node -> node list
(** Out-neighbours (deduplicated). *)

val edge_count : t -> int

val reaches : t -> Types.ckpt_id -> Types.ckpt_id -> bool
(** [reaches g a b] iff there is a (possibly empty) R-path from [a] to [b].
    Every checkpoint reaches itself.  One {!max_reaching_index} lookup. *)

val reachable_set : t -> Types.ckpt_id -> Bitset.t
(** All nodes reachable from the given checkpoint (including itself), as
    a fresh set.  O(V log n). *)

val max_reaching_index : t -> from_pid:Types.pid -> Types.ckpt_id -> int
(** [max_reaching_index g ~from_pid (j, y)] is the greatest [x] such that
    [C_{from_pid,x} ~> C_{j,y}], or [-1] if none.  This is the per-entry
    "true" rollback dependency that a transitive dependency vector is
    supposed to track.  The first query joins a sparse per-process maximum
    into every SCC in one pass (cached); each later query is one lookup. *)

val iter_max_reaching : t -> Types.ckpt_id -> f:(Types.pid -> int -> unit) -> unit
(** [iter_max_reaching g c ~f] calls [f i (max_reaching_index g ~from_pid:i c)]
    for every process [i] whose index is not [-1], in ascending [i]. *)

val in_cycle : t -> Types.ckpt_id -> bool
(** Whether the checkpoint lies on a non-trivial R-cycle (its SCC has more
    than one node or a self loop).  Such checkpoints can never belong to
    any consistent global checkpoint (they are "useless" Z-cycle
    checkpoints). *)

val to_dot : t -> string
(** Graphviz rendering (small patterns; used for docs and debugging). *)
