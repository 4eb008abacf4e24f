(** Message chains: causal chains, Z-paths (zigzag paths) and doubling.

    A {e message chain} [\[m_1; ...; m_q\]] (Definition 3.1; Netzer-Xu
    zigzag path) requires each [m_{v+1}] to be sent by the destination of
    [m_v], in the same or a later checkpoint interval than the delivery of
    [m_v].  The chain is {e causal} (Definition 3.2) when each delivery
    additionally precedes the next send in program order.

    The central questions answered here, for a source checkpoint [C_{i,x}]:
    - which checkpoints can a causal chain starting in [I_{i,x}] (or
      anywhere after a given position) reach?
    - same question for arbitrary Z-paths;
    - is every non-causal chain "doubled" by a causal sibling?

    All reachability queries are answered by a single relaxation pass per
    source: for every process we maintain the earliest position (causal) or
    earliest interval (zigzag) at which a chain has arrived, and extend with
    later sends.  Each message is relaxed at most once, so a pass costs
    O(M + n) after O(1) window arithmetic. *)

type reach = {
  earliest : int array;
      (** [earliest.(j)] is the smallest interval [y] such that a chain
          reaches a delivery in [I_{j,y}]; [max_int] when unreachable. *)
  reached_msgs : bool array;
      (** [reached_msgs.(id)] iff message [id] can end such a chain. *)
}

(** {1 Causal chains} *)

val causal_from_interval : Pattern.t -> Types.ckpt_id -> reach
(** Chains whose first message is sent in exactly [I_{i,x}] (the strict
    Definition 3.3 start).  [x >= 1]; for [x = 0] the result is empty. *)

val causally_precedes : Pattern.t -> Types.ckpt_id -> Types.ckpt_id -> bool
(** [causally_precedes p a b]: checkpoint [a] belongs to the causal past of
    checkpoint [b] (some causal chain sent after [a] is delivered before
    [b]).  Irreflexive. *)

(** {1 Z-paths (zigzag)} *)

val zpath_from_interval : Pattern.t -> Types.ckpt_id -> reach
(** Z-paths whose first message is sent in exactly [I_{i,x}] — the chains
    realising R-paths out of [C_{i,x}]. *)

val zigzag : Pattern.t -> Types.ckpt_id -> Types.ckpt_id -> bool
(** [zigzag p a b]: [a] zigzags to [b] ([Z-path] sent after [a], delivered
    before [b]).  A set of checkpoints extends to a consistent global
    checkpoint iff no member zigzags to a member (Netzer-Xu). *)

val zcycle : Pattern.t -> Types.ckpt_id -> bool
(** [zcycle p a]: [a] zigzags to itself, making it useless (it can belong
    to no consistent global checkpoint). *)

(** {1 Trackability (ground truth by chain search)} *)

val trackable : Pattern.t -> Types.ckpt_id -> Types.ckpt_id -> bool
(** [trackable p (i,x) (j,y)]: [i = j && x <= y], or some causal chain
    starting in an interval [>= x] of [P_i] is delivered to [P_j] before
    [C_{j,y}].  Agrees with {!Tdv.trackable} (tested). *)

val strictly_trackable : Pattern.t -> Types.ckpt_id -> Types.ckpt_id -> bool
(** The literal Definition 3.3: [i = j && x <= y], or some causal chain
    starting in exactly [I_{i,x}] ends in exactly [I_{j,y}]. *)

(** {1 Doubling — the visible characterization} *)

type cm_path = {
  origin : Types.ckpt_id;  (** [C_{k,z}], start of the causal prefix *)
  prefix_end : int;  (** message id ending the causal prefix, [-1] if empty... *)
  last_msg : int;  (** the message sent before the prefix's delivery *)
  target : Types.ckpt_id;  (** [C_{j,y}] the CM-path leads to *)
}

val cm_paths : Pattern.t -> cm_path list
(** All {e causal-message} Z-paths: a (possibly empty... always non-empty
    here) causal chain [mu] from [C_{k,z}] whose last delivery occurs at
    some process after the send of a message [m] in the same interval,
    followed by [m].  These are exactly the minimal non-causal Z-paths a
    protocol must double or break; the PODC'99 characterization states that
    a pattern satisfies RDT iff every such path is doubled. *)

val undoubled_cm_paths : Pattern.t -> Tdv.t -> cm_path list
(** The CM-paths with no causal sibling (not TDV-trackable).  Empty iff the
    pattern satisfies RDT (cross-validated against the full R-graph
    checker in the test suite). *)

val pairwise_doubled : Pattern.t -> Tdv.t -> bool
(** The {e weaker} candidate characterization: every non-causal
    two-message chain [\[m; m'\]] (a message [m'] sent before the
    delivery of [m] in the same interval) is doubled.  Implied by RDT,
    but {e not} equivalent to it: longer non-causal chains can stay
    undoubled while every adjacent pair is — see the
    [pairwise_insufficient] fixture in the test suite.  This is why the
    characterization needs the full causal prefix of {!cm_paths}. *)
