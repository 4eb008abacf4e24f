(** Producer-consumer environment: the first half of the processes
    produce items for uniformly chosen consumers in the second half; a
    consumer acknowledges each item back to its producer with probability
    0.5.  Think times and the share of sends are {!Random_env}'s.
    Communication is strongly bipartite, which keeps the [causal]
    matrices sparse and favours the knowledge-based predicates. *)

val env : Rdt_dist.Env.t
