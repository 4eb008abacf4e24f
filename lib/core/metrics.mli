(** Run metrics collected by the {!Runtime}. *)

type t = {
  n : int;
  protocol : string;
  environment : string;
  seed : int;
  basic : int;  (** basic checkpoints taken, including those a rollback undid *)
  basic_skipped : int;  (** scheduled basic checkpoints skipped (empty interval) *)
  forced : int;
      (** forced checkpoints taken, including recovery checkpoints and
          those a rollback undid *)
  messages : int;
      (** messages in the pattern: sent and delivered, excluding abandoned
          and undone sends *)
  internal_events : int;
  payload_bits_per_msg : int;
  duration : int;  (** simulated time at the end of the run *)
}

val total_checkpoints : t -> int
(** Initial + basic + forced (the final analysis checkpoints are not
    counted — they are an artefact of pattern completion). *)

val forced_per_basic : t -> float
(** The paper's overhead measure: forced checkpoints per basic
    checkpoint. *)

val forced_per_message : t -> float

val pp : Format.formatter -> t -> unit
