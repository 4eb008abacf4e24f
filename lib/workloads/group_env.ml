module Env = Rdt_dist.Env
module Rng = Rdt_dist.Rng

type group_params = { group_size : int; overlap : int; multicast_prob : float; intra_prob : float }

let default_group_params = { group_size = 3; overlap = 1; multicast_prob = 0.3; intra_prob = 0.95 }

let validate p =
  if p.group_size < 2 then Error "group_size must be >= 2"
  else if p.overlap < 0 || p.overlap >= p.group_size then Error "overlap out of [0, group_size)"
  else if p.multicast_prob < 0.0 || p.multicast_prob > 1.0 then Error "multicast_prob out of [0;1]"
  else if p.intra_prob < 0.0 || p.intra_prob > 1.0 then Error "intra_prob out of [0;1]"
  else Ok ()

(* Groups are windows of [group_size] consecutive processes (mod n),
   starting every (group_size - overlap) processes. *)
let build_groups ~n ~group_size ~overlap =
  let stride = max 1 (group_size - overlap) in
  let num_groups = max 1 ((n + stride - 1) / stride) in
  Array.init num_groups (fun g ->
      Array.init (min group_size n) (fun k -> ((g * stride) + k) mod n))

let make ?(params = default_group_params) () : Env.t =
  (match validate params with Ok () -> () | Error e -> invalid_arg ("Group_env: " ^ e));
  (module struct
    type t = {
      n : int;
      rng : Rng.t;
      groups : int array array;
      groups_of : int array array; (* process -> ids of groups containing it *)
    }

    let name = "group"

    let create ~n ~rng =
      let groups = build_groups ~n ~group_size:params.group_size ~overlap:params.overlap in
      let member = Array.make n [] in
      Array.iteri
        (fun g members -> Array.iter (fun p -> member.(p) <- g :: member.(p)) members)
        groups;
      let groups_of = Array.map (fun l -> Array.of_list (List.rev l)) member in
      { n; rng; groups; groups_of }

    let mean_think = Random_env.mean_think

    let initial_tick_delay t ~pid:_ = Rng.exponential_int t.rng ~mean:mean_think

    let uniform_other t pid =
      let d = Rng.int t.rng (t.n - 1) in
      if d >= pid then d + 1 else d

    let group_other t pid =
      (* a random fellow member of a random group of [pid] *)
      let gs = t.groups_of.(pid) in
      if Array.length gs = 0 then uniform_other t pid
      else begin
        let members = t.groups.(Rng.pick t.rng gs) in
        let rec draw tries =
          if tries = 0 then uniform_other t pid
          else
            let m = Rng.pick t.rng members in
            if m <> pid then m else draw (tries - 1)
        in
        draw 8
      end

    let on_tick t ~pid =
      let actions =
        if not (Rng.bernoulli t.rng Random_env.send_prob) then [ Env.Internal ]
        else if Rng.bernoulli t.rng params.multicast_prob && Array.length t.groups_of.(pid) > 0
        then begin
          let members = t.groups.(Rng.pick t.rng t.groups_of.(pid)) in
          Array.to_list
            (Array.of_seq
               (Seq.filter_map
                  (fun m -> if m <> pid then Some (Env.Send m) else None)
                  (Array.to_seq members)))
        end
        else if Rng.bernoulli t.rng params.intra_prob then [ Env.Send (group_other t pid) ]
        else [ Env.Send (uniform_other t pid) ]
      in
      { Env.actions; next_tick_in = Some (Rng.exponential_int t.rng ~mean:mean_think) }

    let on_deliver = Env.no_reaction
  end)
