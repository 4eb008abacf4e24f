module Env = Rdt_dist.Env
module Rng = Rdt_dist.Rng

let ack_prob = 0.5

let env : Env.t =
  (module struct
    type t = { n : int; rng : Rng.t; producers : int }

    let name = "prodcons"

    let create ~n ~rng = { n; rng; producers = max 1 (n / 2) }

    let mean_think = Random_env.mean_think

    let initial_tick_delay t ~pid:_ = Rng.exponential_int t.rng ~mean:mean_think

    let on_tick t ~pid =
      let consumers = t.n - t.producers in
      let actions =
        if pid < t.producers && consumers > 0 && Rng.bernoulli t.rng Random_env.send_prob then
          [ Env.Send (t.producers + Rng.int t.rng consumers) ]
        else [ Env.Internal ]
      in
      { Env.actions; next_tick_in = Some (Rng.exponential_int t.rng ~mean:mean_think) }

    let on_deliver t ~pid ~src =
      if pid >= t.producers && src < t.producers && Rng.bernoulli t.rng ack_prob then
        [ Env.Send src ]
      else []
  end)
