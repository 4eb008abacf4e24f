(** Token-ring environment: [tokens] tokens circulate around the ring
    [0 -> 1 -> ... -> n-1 -> 0]; a process forwards a token as soon as it
    is delivered, and performs occasional internal events.  A classic
    pipeline pattern where dependencies wrap around — useful to exercise
    chains from [C_{k,z}] back to earlier checkpoints of the same
    process (the C2 predicate). *)

type ring_params = { tokens : int; internal_mean : int }

val make : ?params:ring_params -> unit -> Rdt_dist.Env.t
