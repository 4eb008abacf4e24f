(** The paper's protocol family: transitive dependency vector plus the
    [sent_to] and [causal] knowledge, forcing a checkpoint when an
    arriving message would create an untrackable dependency.  The three
    members share state, merge and payload shape ({!Control.Full}, with
    an empty [simple] row in the variants) and differ only in the
    predicate that breaks the chains C1 cannot see. *)

type variant = Full | V1 | V2

type state = private {
  variant : variant;
  n : int;
  pid : int;
  tdv : int array;
  sent_to : int array;
  simple : int array;  (** [[||]] unless [Full] *)
  causal : int array;  (** row-major, as in {!Control} *)
}

val protocol : variant -> (module Protocol.S with type state = state)

val full : Protocol.t
(** [bhmr], Figure 6: C1 or C2, tracking the [simple] array.  The most
    sparing RDT protocol in the registry. *)

val v1 : Protocol.t
(** [bhmr-v1], the first weaker variant of Section 5.1 (suggested by
    Y.-M. Wang): drops [simple] and replaces C2 with C2', a causal chain
    returning to its own sending interval with any new dependency.
    Forces at least as often as {!full}, piggybacks [n] fewer bits. *)

val v2 : Protocol.t
(** [bhmr-v2], the second weaker variant of Section 5.1: drops C2 and
    holds the diagonal of [causal] permanently false, so C1 also covers
    the chains C2 used to break. *)
