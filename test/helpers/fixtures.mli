(** Hand-built checkpoint & communication patterns used across the test
    suite, starting with Figure 1 of the paper. *)

type fig1 = {
  pattern : Rdt_pattern.Pattern.t;
  (* message ids, named as in the paper *)
  m1 : int;
  m2 : int;
  m3 : int;
  m4 : int;
  m5 : int;
  m6 : int;
  m7 : int;
  i : int;  (** pid of P_i (= 0) *)
  j : int;  (** pid of P_j (= 1) *)
  k : int;  (** pid of P_k (= 2) *)
}

val figure1 : unit -> fig1
(** The checkpoint and communication pattern of Figure 1.a:

    - [\[m3; m2\]] is a (non-causal) message chain from [C_{k,1}] to
      [C_{i,2}];
    - [\[m5; m4\]] and [\[m5; m6\]] are chains realising [C_{i,3} ~>
      C_{k,2}], the latter causal (a causal sibling of the former);
    - [\[m3; m2; m5; m4; m7\]] is a non-causal chain, concatenation of the
      causal chains [\[m3\]], [\[m2; m5\]], [\[m4; m7\]];
    - the pair [(C_{k,1}, C_{j,1})] is consistent; [(C_{i,2}, C_{j,2})] is
      not (orphan [m5]);
    - the pattern violates RDT: the R-path [C_{k,1} ~> C_{i,2}] has no
      causal sibling. *)

val two_crossing : unit -> Rdt_pattern.Pattern.t
(** Two processes exchanging crossing messages within their first
    intervals, yielding an R-cycle between [C_{0,1}] and [C_{1,1}] — a
    benign cycle: the pair is nevertheless consistent (crossing messages
    create mutual R-edges but no orphan). *)

val zcycle_fixture : unit -> Rdt_pattern.Pattern.t
(** A genuine Z-cycle on [C_{1,1}]: a chain leaves after [C_{1,1}] and
    zigzags back before it, making that checkpoint useless (member of no
    consistent global checkpoint). *)

val pairwise_insufficient : unit -> Rdt_pattern.Pattern.t
(** A 4-process, 8-message pattern in which every non-causal {e pair} of
    messages has a causal sibling, yet RDT fails: the hidden dependency
    is carried only by a longer non-causal chain.  Pins the fact that
    pairwise doubling does not characterise RDT (the CM-path form
    does). *)

val causal_ping_pong : unit -> Rdt_pattern.Pattern.t
(** A small RDT-satisfying pattern: strictly alternating request/reply
    between two processes with checkpoints only between exchanges. *)

val logged : unit -> (string * Rdt_pattern.Pattern.t * int array array) list
(** Every fixture above, named, with the gseq of each of its events
    (built through {!Naive.Logged}). *)
