module Env = Rdt_dist.Env
module Rng = Rdt_dist.Rng

let reply_prob = 0.5
let mean_request_gap = 60
let internal_mean = 150

let env : Env.t =
  (module struct
    type t = { n : int; rng : Rng.t }

    let name = "client-server"

    let create ~n ~rng = { n; rng }

    let initial_tick_delay t ~pid =
      if pid = 0 then Rng.exponential_int t.rng ~mean:mean_request_gap
      else Rng.exponential_int t.rng ~mean:internal_mean

    (* What server [pid] does with a request it holds: reply to the caller
       or forward up the chain. *)
    let handle_request t ~pid =
      let last = t.n - 1 in
      if pid = last || Rng.bernoulli t.rng reply_prob then
        if pid = 0 then [] (* reply to the external client: no message *)
        else [ Env.Send (pid - 1) ]
      else [ Env.Send (pid + 1) ]

    let on_tick t ~pid =
      if pid = 0 then
        (* a fresh external request arrives at S_0 *)
        {
          Env.actions = handle_request t ~pid:0;
          next_tick_in = Some (Rng.exponential_int t.rng ~mean:mean_request_gap);
        }
      else
        {
          Env.actions = [ Env.Internal ];
          next_tick_in = Some (Rng.exponential_int t.rng ~mean:internal_mean);
        }

    let on_deliver t ~pid ~src =
      if src = pid - 1 then handle_request t ~pid (* a request from below *)
      else if src = pid + 1 then
        (* a reply from above: propagate it down *)
        if pid = 0 then [] else [ Env.Send (pid - 1) ]
      else []
  end)
