module Env = Rdt_dist.Env
module Rng = Rdt_dist.Rng

let warmup_mean = 30

let env : Env.t =
  (module struct
    type t = {
      n : int;
      rng : Rng.t;
      started : bool array;
      pending : int array; (* neighbour messages still expected this phase *)
    }

    let name = "stencil"

    let create ~n ~rng = { n; rng; started = Array.make n false; pending = Array.make n 2 }

    let initial_tick_delay t ~pid:_ = Rng.exponential_int t.rng ~mean:warmup_mean

    let neighbours t pid =
      if t.n = 2 then [ (pid + 1) mod 2 ]
      else [ (pid + 1) mod t.n; (pid + t.n - 1) mod t.n ]

    (* the phase's compute step, then one message to each neighbour *)
    let exchange t pid =
      let sends = List.map (fun nb -> Env.Send nb) (neighbours t pid) in
      t.pending.(pid) <- List.length sends;
      Env.Internal :: sends

    let on_tick t ~pid =
      if t.started.(pid) then { Env.actions = []; next_tick_in = None }
      else begin
        t.started.(pid) <- true;
        { Env.actions = exchange t pid; next_tick_in = None }
      end

    let on_deliver t ~pid ~src:_ =
      t.pending.(pid) <- t.pending.(pid) - 1;
      if t.pending.(pid) <= 0 then exchange t pid else []
  end)
