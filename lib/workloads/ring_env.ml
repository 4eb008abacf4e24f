module Env = Rdt_dist.Env
module Rng = Rdt_dist.Rng

let tokens = 2
let internal_mean = 80

let env : Env.t =
  (module struct
    type t = { n : int; rng : Rng.t; launched : bool array }

    let name = "ring"

    let create ~n ~rng = { n; rng; launched = Array.make n false }

    let initial_tick_delay t ~pid:_ = 1 + Rng.int t.rng internal_mean

    let next t pid = (pid + 1) mod t.n

    let on_tick t ~pid =
      let actions =
        if pid < min tokens t.n && not t.launched.(pid) then begin
          t.launched.(pid) <- true;
          [ Env.Send (next t pid) ]
        end
        else [ Env.Internal ]
      in
      { Env.actions; next_tick_in = Some (Rng.exponential_int t.rng ~mean:internal_mean) }

    let on_deliver t ~pid ~src:_ = [ Env.Send (next t pid) ]
  end)
