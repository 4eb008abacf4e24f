(** Master-worker environment: process 0 periodically scatters a batch of
    tasks to [fanout] random workers; each worker replies with a result.
    A hub-and-spoke pattern where the master's state accumulates
    dependencies on every worker. *)

type mw_params = { fanout : int; mean_batch_gap : int; worker_internal_mean : int }

val make : ?params:mw_params -> unit -> Rdt_dist.Env.t
