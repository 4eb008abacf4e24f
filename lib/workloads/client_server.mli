(** The client-server environment (Figure 9 of the paper).

    Processes act as a chain of servers [S_0 .. S_{n-1}].  An external
    client (modelled as spontaneous activity at [S_0], with a mean gap of
    60 between requests) issues requests; each server either replies to
    its caller, with probability 0.5, or forwards the request to the next
    server and waits.  The last server always replies, and replies
    propagate back down the chain ([S_0]'s reply to the external client
    involves no message).  Every other server has an internal event every
    150 time units on average.

    This environment is adversarial for dependency tracking: "the causal
    past of any message contains all the messages of the computation", so
    every delivery is a potential new-dependency event.  Several client
    requests may be outstanding at once: [S_0] issues them without
    waiting for replies. *)

val env : Rdt_dist.Env.t
