(** Registry of workload environments, each at its one fixed shape.

    One environment value is shared by every run, across the domains of
    an experiment pool too.  That is safe because no environment keeps
    module-level mutable state: all of it lives in the [t] its [create]
    returns. *)

val all : (string * string * Rdt_dist.Env.t) list
(** [(name, description, environment)] for every environment. *)

val find : string -> Rdt_dist.Env.t option

val find_exn : string -> Rdt_dist.Env.t
(** @raise Invalid_argument on unknown names. *)

val names : string list
