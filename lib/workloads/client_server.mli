(** The client-server environment (Figure 9 of the paper).

    Processes act as a chain of servers [S_0 .. S_{n-1}].  An external
    client (modelled as spontaneous activity at [S_0]) issues requests;
    each server either replies to its caller, with probability
    [reply_prob], or forwards the request to the next server and waits.
    The last server always replies, and replies propagate back down the
    chain ([S_0]'s reply to the external client involves no message).

    This environment is adversarial for dependency tracking: "the causal
    past of any message contains all the messages of the computation", so
    every delivery is a potential new-dependency event.  Several client
    requests may be outstanding at once ([pipeline] > 1 issues them
    without waiting). *)

type cs_params = {
  reply_prob : float;  (** probability a middle server replies instead of forwarding *)
  mean_request_gap : int;  (** mean time between external client requests *)
  internal_mean : int;  (** mean time between internal events of each server *)
}

val make : ?params:cs_params -> unit -> Rdt_dist.Env.t
