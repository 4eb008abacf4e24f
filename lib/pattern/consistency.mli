(** Consistency of local and global checkpoints (Section 2.2), and the
    minimum / maximum consistent global checkpoints containing a given set
    of local checkpoints.

    A message is {e orphan} w.r.t. the ordered pair [(C_{i,x}, C_{j,y})]
    when its delivery belongs to [C_{j,y}] (delivered before the
    checkpoint) but its send does not belong to [C_{i,x}] (sent after it).
    A global checkpoint — one local checkpoint per process, written as an
    index vector — is consistent when no pair has an orphan.

    Consistent global checkpoints containing a fixed set [S] are closed
    under component-wise minimum and maximum, so when any exists there is a
    unique minimum and a unique maximum; both are computed by monotone
    fixpoints driven by orphan elimination.  Under RDT the minimum one
    containing a single checkpoint [C] equals the transitive dependency
    vector recorded at [C] (Corollary 4.5) — the test suite checks this. *)

val orphan :
  Pattern.t -> sender:Types.ckpt_id -> receiver:Types.ckpt_id -> int option
(** [orphan p ~sender:(i,x) ~receiver:(j,y)] is the id of some message
    sent by [P_i] after [C_{i,x}] and delivered to [P_j] before [C_{j,y}],
    if any. *)

val consistent_pair : Pattern.t -> Types.ckpt_id -> Types.ckpt_id -> bool
(** Symmetric: no orphan in either direction. *)

val consistent_global : Pattern.t -> int array -> bool
(** [consistent_global p v] checks the global checkpoint
    [{C_{0,v.(0)}, ..., C_{n-1,v.(n-1)}}].
    @raise Invalid_argument if [v] has the wrong length or an index is out
    of range. *)

val min_consistent_containing : Pattern.t -> Types.ckpt_id list -> int array option
(** The minimum consistent global checkpoint containing all the given
    local checkpoints, or [None] if no consistent global checkpoint
    contains them.  O(fixpoint · M). *)

val max_consistent_containing : Pattern.t -> Types.ckpt_id list -> int array option
(** The maximum consistent global checkpoint containing all the given
    local checkpoints, or [None]. *)

val messages : Pattern.t -> (int -> int -> int -> int -> unit) -> unit
(** [messages p f] calls [f src send_interval dst recv_interval] on each
    message of [p], in id order. *)

val max_consistent_below :
  ?pinned:bool array -> ((int -> int -> int -> int -> unit) -> unit) -> int array -> int array option
(** [max_consistent_below ?pinned messages start]: the maximum consistent
    vector [v <= start] over the delivered messages that [messages]
    enumerates as {!messages} does.  It is unique, so the enumeration
    order does not matter.  [None] when an orphan would lower an entry [i]
    with [pinned.(i)]; never [None] without pins.
    @raise Invalid_argument on a delivery interval below [1]. *)

val pin_set : Pattern.t -> Types.ckpt_id list -> int array
(** [pin_set p cks]: entry [i] is the index of the member of [cks] on
    [P_i], [-1] where the set has none.
    @raise Invalid_argument if a member does not exist or two members
    are on one process. *)

val extensible : Pattern.t -> Types.ckpt_id list -> bool
(** Whether some consistent global checkpoint contains the set. *)

val useless : Pattern.t -> Types.ckpt_id -> bool
(** A checkpoint is useless when it belongs to no consistent global
    checkpoint.  Equivalent to lying on a Z-cycle (Netzer-Xu) — the
    equivalence is property-tested. *)
