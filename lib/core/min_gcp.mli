(** Minimum and maximum consistent global checkpoints (Corollary 4.5 and
    the dependability applications of Section 1).

    Under RDT, the minimum consistent global checkpoint containing
    [C_{i,x}] is available {e on-the-fly}: it is exactly the transitive
    dependency vector [TDV_{i,x}] recorded when the checkpoint was taken.
    [of_tdv] reads it off a pattern; [minimum]/[maximum] compute the same
    objects from first principles (orphan-elimination fixpoints), with no
    RDT assumption, and are used to validate the corollary. *)

val of_tdv : Rdt_pattern.Pattern.t -> Rdt_pattern.Types.ckpt_id -> int array
(** The on-the-fly answer: the TDV recorded at the checkpoint (protocol
    vector if recorded, offline replay otherwise).  Meaningful as a global
    checkpoint only when the pattern satisfies RDT. *)

val minimum : Rdt_pattern.Pattern.t -> Rdt_pattern.Types.ckpt_id -> int array option
(** Brute-force minimum consistent global checkpoint containing the
    checkpoint; [None] if none exists (impossible under RDT). *)

val minimum_of_set :
  Rdt_pattern.Pattern.t -> Rdt_pattern.Types.ckpt_id list -> int array option
(** Minimum consistent global checkpoint containing a whole set (at most
    one checkpoint per process). *)

val maximum_of_set :
  Rdt_pattern.Pattern.t -> Rdt_pattern.Types.ckpt_id list -> int array option

(** {1 Wang's efficient calculations (enabled by RDT)}

    The introduction's second "noteworthy property" of RDT: the minimum
    and maximum consistent global checkpoints containing a {e set} of
    local checkpoints admit direct calculations, with no fixpoint
    iteration (Wang [13]).  Both are validated against the
    orphan-elimination fixpoints on every RDT run in the test suite. *)

val minimum_by_tdv : Rdt_pattern.Pattern.t -> Rdt_pattern.Types.ckpt_id list -> int array option
(** Under RDT, the minimum consistent global checkpoint containing a set
    is the component-wise maximum of the members' dependency vectors —
    unless some member's vector already dominates another member's index,
    in which case the two cannot coexist and the result is [None].
    Meaningful only on RDT patterns. *)

val maximum_by_rgraph : Rdt_pattern.Pattern.t -> Rdt_pattern.Types.ckpt_id list -> int array option
(** Under RDT, the maximum consistent global checkpoint containing a set
    is obtained by rolling back, on every process, to just before the
    earliest checkpoint R-reachable from any member's {e successor}
    [C_{i,x+1}] (rolling back to [C_{i,x}] means undoing [C_{i,x+1}], and
    the R-graph closure is exactly what that drags along).  [None] when a
    member must be rolled back below itself.  Meaningful only on RDT
    patterns. *)

val corollary_holds : Rdt_pattern.Pattern.t -> bool
(** For every checkpoint [C] of the pattern: {!of_tdv}[ C] =
    {!minimum}[ C].  Expected to hold exactly when the pattern satisfies
    RDT; asserted by the test suite for every RDT protocol run. *)
