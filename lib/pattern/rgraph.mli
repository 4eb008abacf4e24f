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
(** Dense node identifier; see {!node_of_ckpt}. *)

val build : Pattern.t -> t
(** Builds the R-graph of a pattern: one counting pass, then each node's
    successors sorted and deduplicated in place, in two flat arrays
    (compressed sparse rows).  O(V + M) for bounded out-degree. *)

val num_nodes : t -> int

val node_of_ckpt : t -> Types.ckpt_id -> node
(** @raise Invalid_argument if the checkpoint does not exist. *)

val successors : t -> node -> node list
(** Out-neighbours, ascending and distinct (a fresh list). *)

val edge_count : t -> int

val reaches : t -> Types.ckpt_id -> Types.ckpt_id -> bool
(** [reaches g a b] iff there is a (possibly empty) R-path from [a] to [b].
    Every checkpoint reaches itself.  One {!max_reaching_index} lookup. *)

val max_reaching_index : t -> from_pid:Types.pid -> Types.ckpt_id -> int
(** [max_reaching_index g ~from_pid (j, y)] is the greatest [x] such that
    [C_{from_pid,x} ~> C_{j,y}], or [-1] if none.  This is the per-entry
    "true" rollback dependency that a transitive dependency vector is
    supposed to track.  The first query builds one sparse per-process
    maximum per SCC, in one pass over the SCCs in topological order: each
    pulls its predecessors' finished vectors, through the reversed edges,
    into one reused dense accumulator, and is emitted exactly sized
    (cached).  Each later query is one lookup. *)

val max_reach : t -> Types.ckpt_id -> Rdt_dist.Vclock.t
(** [max_reach g c] holds, at entry [i], [1 + max_reaching_index g
    ~from_pid:i c] (so [0], not stored, where no [C_{i,x}] reaches [c]):
    the encoding of [Online]'s max-reach vectors.  Shared by every
    checkpoint of [c]'s SCC; do not mutate. *)

val in_cycle : t -> Types.ckpt_id -> bool
(** Whether the checkpoint lies on a non-trivial R-cycle (its SCC has more
    than one node or a self loop).  Such checkpoints can never belong to
    any consistent global checkpoint (they are "useless" Z-cycle
    checkpoints). *)

val to_dot : t -> string
(** Graphviz rendering (small patterns; used for docs and debugging). *)
