type t = {
  n : int;
  protocol : string;
  environment : string;
  seed : int;
  basic : int;
  basic_skipped : int;
  forced : int;
  messages : int;
  internal_events : int;
  payload_bits_per_msg : int;
  duration : int;
}

let forced_per_basic t = if t.basic = 0 then 0.0 else float_of_int t.forced /. float_of_int t.basic

let pp ppf t =
  Format.fprintf ppf
    "%s/%s n=%d seed=%d: %d msgs, %d basic, %d forced (%.3f per basic), %d bits/msg, t=%d"
    t.protocol t.environment t.n t.seed t.messages t.basic t.forced (forced_per_basic t)
    t.payload_bits_per_msg t.duration
