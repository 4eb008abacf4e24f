module Env = Rdt_dist.Env
module Rng = Rdt_dist.Rng

(* The paper's simulation study (Section 5.3) does not publish its exact
   parameter table (the surviving text is partial).  The constants of
   every environment are chosen to land in the regime it describes:
   processes alternate computation and communication with memoryless
   think times, channels reorder messages freely, and basic checkpoints
   are roughly an order of magnitude rarer than sends. *)
let mean_think = 40
let send_prob = 0.9

let env : Env.t =
  (module struct
    type t = { n : int; rng : Rng.t }

    let name = "random"

    let create ~n ~rng = { n; rng }

    let initial_tick_delay t ~pid:_ = Rng.exponential_int t.rng ~mean:mean_think

    let other_process t pid =
      let d = Rng.int t.rng (t.n - 1) in
      if d >= pid then d + 1 else d

    let on_tick t ~pid =
      let actions =
        if Rng.bernoulli t.rng send_prob then begin
          (* a burst of exactly one message; the draw is kept so that
             every seed reproduces the same stream *)
          let burst = 1 + Rng.int t.rng 1 in
          List.init burst (fun _ -> Env.Send (other_process t pid))
        end
        else [ Env.Internal ]
      in
      { Env.actions; next_tick_in = Some (Rng.exponential_int t.rng ~mean:mean_think) }

    let on_deliver = Env.no_reaction
  end)
