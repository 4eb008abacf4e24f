(** Channel delay models.

    The computational model of the paper assumes each ordered pair of
    processes is connected by a reliable, directed, asynchronous channel
    whose transmission delays are unpredictable but finite.  A [spec]
    describes the delay distribution; {!sample} draws a concrete delay.
    Channels are not required to be FIFO — a [Uniform] spec with a wide
    range reorders messages freely, which is what exercises non-causal
    message chains. *)

type spec =
  | Fixed of int  (** Every message takes exactly this many time units. *)
  | Uniform of int * int
      (** [Uniform (lo, hi)]: delay drawn uniformly in [\[lo, hi\]]. *)
  | Bimodal of { fast : int; slow : int; slow_prob : float }
      (** Mostly-[fast] delays with occasional [slow] stragglers — a simple
          model of a congested link that creates deep message overtaking. *)

val sample : Rng.t -> spec -> int
(** [sample rng spec] draws a delay; [>= 1] for any spec accepted by
    {!validate}.  [sample] does not re-validate — config entry points
    ({!Rdt_core.Runtime.run}) reject bad specs with
    [Invalid_argument] instead of silently clamping here. *)

val validate : spec -> (unit, string) result
(** Checks bounds are positive and ordered. *)
