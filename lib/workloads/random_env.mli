(** The "general" communication environment of the simulation study:
    every process alternates exponentially-distributed think times with
    activities that are, with probability {!send_prob}, a send to a
    uniformly random other process and an internal event otherwise.  No
    reaction to deliveries. *)

val mean_think : int
(** Mean (exponential) delay between spontaneous activities of a process,
    in simulated time units: 40.  {!Group_env} and {!Prodcons_env} think
    alike. *)

val send_prob : float
(** Probability that a spontaneous activity is a send: 0.9. *)

val env : Rdt_dist.Env.t
