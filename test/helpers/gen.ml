module P = Rdt_pattern.Pattern
module Rng = Rdt_dist.Rng
module Faults = Rdt_dist.Faults

let build ~n ~steps ~rng =
  let b = P.Builder.create ~n in
  let pending = ref [] in
  let npending = ref 0 in
  let pick_pending () =
    let k = Rng.int rng !npending in
    let h = List.nth !pending k in
    pending := List.filteri (fun i _ -> i <> k) !pending;
    decr npending;
    h
  in
  for _ = 1 to steps do
    let dice = Rng.float rng 1.0 in
    if dice < 0.40 || (!npending = 0 && dice < 0.80) then begin
      let src = Rng.int rng n in
      let dst = (src + 1 + Rng.int rng (n - 1)) mod n in
      pending := P.Builder.send b ~src ~dst :: !pending;
      incr npending
    end
    else if dice < 0.80 then P.Builder.recv b (pick_pending ())
    else ignore (P.Builder.checkpoint b (Rng.int rng n))
  done;
  while !npending > 0 do
    P.Builder.recv b (pick_pending ())
  done;
  P.Builder.finish ~final_checkpoints:true b

let random_pattern ?n ?steps ~seed () =
  let rng = Rng.create seed in
  let n = match n with Some n -> n | None -> 2 + Rng.int rng 4 in
  let steps = match steps with Some s -> s | None -> 10 + Rng.int rng 71 in
  build ~n ~steps ~rng

let print_pattern p = Format.asprintf "%a" P.pp_summary p

let pattern_arbitrary =
  QCheck.make ~print:print_pattern
    (QCheck.Gen.map (fun seed -> random_pattern ~seed ()) QCheck.Gen.nat)

(* -------------------- shrinkable pattern recipes -------------------- *)

type recipe = { seed : int; n : int; steps : int }

let pattern_of_recipe r =
  let rng = Rng.create r.seed in
  build ~n:r.n ~steps:r.steps ~rng

let print_recipe r =
  Format.asprintf "recipe{seed=%d n=%d steps=%d} ~> %a" r.seed r.n r.steps P.pp_summary
    (pattern_of_recipe r)

(* Shrink towards the structural floor (n = 2, steps = min_steps); the
   seed is left alone — changing it would jump to an unrelated pattern
   rather than a smaller version of the failing one. *)
let shrink_recipe ~min_steps r yield =
  QCheck.Shrink.int (r.n - 2) (fun d -> yield { r with n = 2 + d });
  QCheck.Shrink.int (r.steps - min_steps) (fun d -> yield { r with steps = min_steps + d })

let recipe_gen ~max_n ~min_steps ~max_steps =
  let open QCheck.Gen in
  let* seed = nat in
  let* n = 2 -- max_n in
  let+ steps = min_steps -- max_steps in
  { seed; n; steps }

let small_recipe_arbitrary =
  QCheck.make ~print:print_recipe
    ~shrink:(shrink_recipe ~min_steps:1)
    (recipe_gen ~max_n:3 ~min_steps:8 ~max_steps:20)

let small_pattern_arbitrary =
  QCheck.make ~print:print_pattern
    (QCheck.Gen.map pattern_of_recipe (recipe_gen ~max_n:3 ~min_steps:8 ~max_steps:20))

(* -------------------- transport link scenarios -------------------- *)

type link_scenario = {
  link_seed : int;
  drop : float;
  dup : float;
  reorder : float;
  window : int;
  partition : (int * int) option;
  max_retx : int;
  retx_timeout : int;
  messages : int;
  send_gap : int;
}

let link_scenario_gen =
  let open QCheck.Gen in
  let* link_seed = nat in
  let* drop = float_bound_inclusive 0.4 in
  let* dup = float_bound_inclusive 0.3 in
  let* reorder = float_bound_inclusive 0.3 in
  let* window = 1 -- 80 in
  let* partition =
    frequency [ (2, return None); (1, map (fun a -> Some (a, a + 500)) (0 -- 1500)) ]
  in
  let* max_retx = 6 -- 30 in
  let* retx_timeout = 50 -- 400 in
  let* messages = 1 -- 120 in
  let+ send_gap = 0 -- 40 in
  {
    link_seed;
    drop;
    dup;
    reorder;
    window;
    partition;
    max_retx;
    retx_timeout;
    messages;
    send_gap;
  }

let print_link_scenario s =
  Printf.sprintf
    "{seed=%d drop=%.2f dup=%.2f reorder=%.2f/%d partition=%s max_retx=%d rto=%d msgs=%d gap=%d}"
    s.link_seed s.drop s.dup s.reorder s.window
    (match s.partition with None -> "-" | Some (a, b) -> Printf.sprintf "%d-%d" a b)
    s.max_retx s.retx_timeout s.messages s.send_gap

(* Shrink by disabling fault dimensions one at a time, then by thinning
   the traffic — each step keeps the scenario well-formed. *)
let shrink_link_scenario s yield =
  if s.partition <> None then yield { s with partition = None };
  if s.drop > 0.0 then yield { s with drop = 0.0 };
  if s.dup > 0.0 then yield { s with dup = 0.0 };
  if s.reorder > 0.0 then yield { s with reorder = 0.0 };
  QCheck.Shrink.int (s.messages - 1) (fun d -> yield { s with messages = 1 + d });
  QCheck.Shrink.int s.send_gap (fun d -> yield { s with send_gap = d })

let link_scenario_arbitrary =
  QCheck.make ~print:print_link_scenario ~shrink:shrink_link_scenario link_scenario_gen

let faults_of_link s =
  {
    Faults.none with
    drop = s.drop;
    dup = s.dup;
    reorder = s.reorder;
    reorder_window = (if s.reorder > 0.0 then s.window else 0);
    partitions =
      (match s.partition with
      | None -> []
      | Some (from_t, to_t) -> [ { Faults.between = [ 1 ]; from_t; to_t } ]);
  }
