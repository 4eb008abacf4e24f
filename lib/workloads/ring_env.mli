(** Token-ring environment: two tokens, launched by processes 0 and 1,
    circulate around the ring [0 -> 1 -> ... -> n-1 -> 0]; a process
    forwards a token as soon as it is delivered, and performs occasional
    internal events (every 80 time units on average).  A classic pipeline
    pattern where dependencies wrap around — useful to exercise chains
    from [C_{k,z}] back to earlier checkpoints of the same process (the
    C2 predicate). *)

val env : Rdt_dist.Env.t
