(** Overlapping group communication environments (Figure 8 of the paper).

    Processes are organised into groups of [group_size], each overlapping
    the next by [overlap] members (wrapping around), so information flows
    mostly inside groups and leaks through the shared members.  A
    spontaneous activity is, with probability [multicast_prob], a
    multicast to every other member of one of the process's groups;
    otherwise, with probability [intra_prob], a send to a random member of
    its own groups, and a uniform random send otherwise.  Think times and
    the share of sends are {!Random_env}'s. *)

type group_params = {
  group_size : int;
  overlap : int;  (** [0 <= overlap < group_size] *)
  multicast_prob : float;
  intra_prob : float;
}

val default_group_params : group_params

val make : ?params:group_params -> unit -> Rdt_dist.Env.t
