(** Reliable-delivery transport over an unreliable network.

    Recovers the paper's channel model — every message delivered exactly
    once, after a finite delay — on top of a network that loses, duplicates
    and reorders packets ({!Faults}).  Per ordered pair of processes the
    transport keeps a unidirectional link with:

    - sender side: sequence numbers, a buffer of unacknowledged messages,
      and per-message retransmission timers with exponential backoff (a
      factor of 2 per retry) and a seeded jitter of up to 20;
    - receiver side: the next expected sequence number, a reordering buffer
      for out-of-order arrivals, and cumulative acknowledgements.

    Delivery to the caller is {e exactly-once and FIFO per link}: a message
    is surfaced through {!emit} [Deliver] at its first in-order arrival
    only, so piggybacked CIC control information is merged exactly once.
    (FIFO links are a special case of the paper's non-FIFO channels, so
    every RDT guarantee carries over.)

    The transport is {e passive}: it never touches an event queue itself.
    {!send} and {!handle} return a list of {!emit} effects; the caller
    schedules every [Wire] effect on its own queue and feeds the packet
    back through {!handle} when the simulated clock reaches it.  All
    randomness (fault sampling, delays, jitter) comes from the [rng] given
    at creation, so runs are reproducible from the seed.

    {b Graceful degradation.}  A message still unacknowledged after
    [max_retx] retransmissions is abandoned with a typed [Undeliverable]
    effect instead of blocking the link forever: the receiver skips over
    the gap (delivering any buffered successors) and later stray copies are
    discarded.  Because the simulation is omniscient, a message the
    receiver {e did} obtain while only the acknowledgements were lost is
    counted as delivered, never as undeliverable — [Undeliverable] and
    [Deliver] are mutually exclusive per message.  Since [max_retx] is
    finite, every run terminates: each message ends either delivered or
    undeliverable and {!in_flight} returns to [0]. *)

type params = {
  retx_timeout : int;  (** initial retransmission timeout (>= 1) *)
  max_retx : int;
      (** retransmissions before the message is abandoned as
          [Undeliverable] (>= 0); keeps every run finite *)
}

val default_params : params
(** [{ retx_timeout = 250; max_retx = 25 }] —
    tuned to the default [Uniform (5, 100)] channel: at 10% drop the
    probability of a spurious [Undeliverable] is about [1e-25]. *)

val validate_params : params -> (unit, string) result

(** Wire-level events: the caller schedules them at the time given by the
    [Wire] effect and hands them back to {!handle}. *)
type wire =
  | Data of { src : int; dst : int; seq : int }
  | Ack of { src : int; dst : int; cum : int }
      (** cumulative: [dst] has delivered every seq [< cum] on the
          [src -> dst] link *)
  | Retx_timer of { src : int; dst : int; seq : int }

(** Effects returned by {!send} and {!handle}, in the order they must be
    applied. *)
type 'a emit =
  | Deliver of { src : int; dst : int; msg : 'a }
      (** first in-order arrival: hand the message to the protocol *)
  | Wire of { at : int; wire : wire }  (** schedule this packet/timer *)
  | Undeliverable of { src : int; dst : int; msg : 'a }
      (** abandoned after [max_retx] retransmissions *)

(** Observability callbacks: transport-internal incidents that do not
    surface as {!emit} effects but that a tracing layer wants to see.
    [time] is the simulated clock of the incident. *)
type notice =
  | N_drop of { src : int; dst : int; time : int }
      (** one packet copy lost to drop sampling or a partition *)
  | N_retransmit of { src : int; dst : int; seq : int; attempt : int; time : int }
      (** retransmission number [attempt] (1-based) of [seq] *)

type 'a t

val create :
  ?notify:(notice -> unit) ->
  n:int ->
  params:params ->
  faults:Faults.spec ->
  channel:Channel.spec ->
  rng:Rng.t ->
  unit ->
  'a t
(** The transport owns [rng] from here on (dedicate a {!Rng.split} stream
    to it).  [notify] (default: ignore) is called synchronously as incidents
    happen; it must not call back into the transport.
    @raise Invalid_argument on invalid [params]. *)

(** {2 One transmission attempt}

    The attempt model {!send} and {!handle} are built on, for a caller
    with its own retransmission loop (the stop-and-wait network of crash
    runs).  Each call keeps the packet counters of {!stats} and sends the
    {!notice}s; [arrive] gets the arrival instant of each packet copy the
    network lets through. *)

val transmit :
  'a t -> now:int -> src:int -> dst:int -> seq:int -> retx:int -> (int -> unit) -> int
(** Data packet [seq] from [src] to [dst], as retransmission number [retx]
    ([0]: the first attempt).  An active partition silences it; otherwise
    it is possibly duplicated and each copy independently dropped,
    delayed and reordered.  Returns the instant its retransmission timer
    fires: [now + retx_timeout * min (2 ** retx) 32] (at least [now + 1])
    plus a seeded jitter in [\[0; 20\]]. *)

val acknowledge :
  'a t -> now:int -> src:int -> dst:int -> redundant:bool -> (int -> unit) -> unit
(** The acknowledgement of the [src -> dst] link, from [dst] back to
    [src]; [redundant] counts the arrival it answers as a suppressed
    duplicate. *)

val lost : 'a t -> now:int -> src:int -> dst:int -> unit
(** A packet copy lost at an endpoint that is down. *)

val send : 'a t -> now:int -> src:int -> dst:int -> 'a -> 'a emit list
(** Entrust a message to the transport.
    @raise Invalid_argument if [src = dst] or a pid is out of range. *)

val handle : 'a t -> now:int -> wire -> 'a emit list

val in_flight : 'a t -> int
(** Messages accepted by {!send} and neither acknowledged nor abandoned
    yet.  A delivered message whose acknowledgement is still in the
    network counts.  [0] once the caller's event queue has drained.  O(1): maintained as a
    counter, never recomputed by walking the link table. *)

val live_links : 'a t -> int
(** Number of ordered (src, dst) pairs that have carried traffic.  Link
    state is allocated lazily per live pair, so a transport over [n]
    endpoints costs O({!live_links}), not O(n{^ 2}). *)

type stats = {
  accepted : int;  (** messages entrusted to the transport *)
  delivered : int;  (** in-order exactly-once deliveries *)
  undeliverable : int;  (** messages abandoned after [max_retx] retries *)
  data_packets : int;  (** data transmission attempts (first + retx) *)
  retransmissions : int;
  ack_packets : int;  (** acknowledgement transmission attempts *)
  packets_dropped : int;  (** copies lost to drop sampling or partitions *)
  duplicated : int;  (** copies added by network duplication *)
  duplicates_suppressed : int;  (** redundant arrivals discarded at the receiver *)
  reordered : int;  (** copies held back by adversarial extra delay *)
}

val stats : 'a t -> stats

val pp_stats : Format.formatter -> stats -> unit
