(** Producer-consumer environment: the first half of the processes
    produce items for uniformly chosen consumers in the second half; a
    consumer acknowledges each item back to its producer with probability
    [ack_prob].  Communication is strongly bipartite, which keeps the
    [causal] matrices sparse and favours the knowledge-based predicates. *)

type pc_params = { ack_prob : float; base : Params.t }

val make : ?params:pc_params -> unit -> Rdt_dist.Env.t
