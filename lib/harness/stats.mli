(** Streaming statistics accumulator (Welford's algorithm), used to
    aggregate metrics over seeds. *)

type t

val create : unit -> t

val add : t -> float -> unit

val mean : t -> float
(** 0 when empty. *)

val ci95_half_width : t -> float
(** Half-width of the 95% normal-approximation confidence interval on the
    mean ([1.96 * stddev / sqrt count]); 0 with fewer than two samples. *)

val merge : into:t -> t -> unit
(** [merge ~into:a b] folds [b]'s samples into [a] (Chan-Golub-LeVeque
    pairwise combination): afterwards [a] reports the statistics of both
    sample sets together.  [b] is unchanged.  Mean and variance agree
    with element-wise {!add} up to the usual floating-point
    reassociation.  Deterministic: merging the same
    accumulators in the same order always yields the same bits. *)

val of_list : float list -> t
