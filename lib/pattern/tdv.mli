(** Offline transitive-dependency-vector (TDV) replay.

    Replays the TDV mechanism of Section 3.3 over a finished pattern:
    every process [P_i] maintains a vector whose entry [i] equals the index
    of its current checkpoint interval and whose entry [j] records the
    highest interval index of [P_j] its state causally depends on through
    {e causal} message chains.  The vector recorded when [C_{i,x}] is taken
    is written [TDV_{i,x}].

    This offline computation is the ground truth against which both the
    on-line protocol vectors and the R-graph dependencies are checked:
    a pattern satisfies RDT iff for every R-path [C_{i,x} ~> C_{j,y}] we
    have [TDV_{j,y}.(i) >= x]. *)

type t

val compute : Pattern.t -> t
(** One pass over the events in global-sequence order; O(E·n). *)

val at : t -> Types.ckpt_id -> int array
(** [at t (i, x)] is [TDV_{i,x}] (do not mutate).  Entry [i] equals [x].
    @raise Invalid_argument if the checkpoint does not exist. *)

val trackable : t -> Types.ckpt_id -> Types.ckpt_id -> bool
(** [trackable t (i, x) (j, y)]: the dependency of [C_{j,y}] on [C_{i,x}]
    is on-line trackable — [i = j && x <= y], or [TDV_{j,y}.(i) >= x]. *)
