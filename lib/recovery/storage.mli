(** A stable-storage model for checkpoints.

    Tracks which local checkpoints have been flushed to stable storage and
    answers the garbage-collection question: once a recovery line is
    known, every checkpoint strictly below it on every process can never
    be needed again and may be reclaimed. *)

type t

val create : Rdt_pattern.Pattern.t -> t
(** Storage for a finished pattern; initially only the initial checkpoints
    [C_{i,0}] are stable. *)

val make_stable : t -> Rdt_pattern.Types.ckpt_id -> unit
(** Flush a checkpoint.  Idempotent.
    @raise Invalid_argument if it does not exist in the pattern. *)

val is_stable : t -> Rdt_pattern.Types.ckpt_id -> bool

val stable_count : t -> int

val collect : t -> line:int array -> int
(** Reclaims every stable [C_{i,x}] with [0 < x < line.(i)], the
    checkpoints the recovery line makes useless; returns how many were
    discarded.  Initial checkpoints are never reclaimed: a recovery to
    the line of all zeros must stay possible. *)
