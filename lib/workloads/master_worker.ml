module Env = Rdt_dist.Env
module Rng = Rdt_dist.Rng

let fanout = 3
let mean_batch_gap = 100
let worker_internal_mean = 120

let env : Env.t =
  (module struct
    type t = { n : int; rng : Rng.t }

    let name = "master-worker"

    let create ~n ~rng = { n; rng }

    let initial_tick_delay t ~pid =
      if pid = 0 then Rng.exponential_int t.rng ~mean:mean_batch_gap
      else Rng.exponential_int t.rng ~mean:worker_internal_mean

    let on_tick t ~pid =
      if pid = 0 then begin
        let workers = t.n - 1 in
        let batch = min fanout workers in
        let chosen = Array.init workers (fun k -> k + 1) in
        Rng.shuffle t.rng chosen;
        {
          Env.actions = List.init batch (fun k -> Env.Send chosen.(k));
          next_tick_in = Some (Rng.exponential_int t.rng ~mean:mean_batch_gap);
        }
      end
      else
        {
          Env.actions = [ Env.Internal ];
          next_tick_in = Some (Rng.exponential_int t.rng ~mean:worker_internal_mean);
        }

    let on_deliver _ ~pid ~src =
      if pid <> 0 && src = 0 then [ Env.Send 0 ] (* worker returns a result *)
      else []
  end)
