(** Master-worker environment: process 0 scatters a batch of tasks to
    three random workers every 100 time units on average; each worker
    replies with a result, and has an internal event every 120 on
    average.  A hub-and-spoke pattern where the master's state
    accumulates dependencies on every worker. *)

val env : Rdt_dist.Env.t
