(* Tests for rdt_workloads: every environment produces well-formed
   actions, deterministic streams, and the topology each one advertises. *)

module Env = Rdt_dist.Env
module Rng = Rdt_dist.Rng

let check = Alcotest.(check bool)

(* Drive an environment directly for [ticks] spontaneous activities per
   process and collect every action; reactions to deliveries are fed back
   a bounded number of times. *)
let drive ?(n = 6) ?(ticks = 200) ?(seed = 5) (module E : Env.S) =
  let rng = Rng.create seed in
  let t = E.create ~n ~rng in
  let actions = ref [] in
  let record pid acts = List.iter (fun a -> actions := (pid, a) :: !actions) acts in
  for pid = 0 to n - 1 do
    check "initial delay positive" true (E.initial_tick_delay t ~pid >= 0)
  done;
  let budget = ref 2000 in
  let rec deliver_chain ~pid acts =
    List.iter
      (fun a ->
        match a with
        | Env.Send dst when !budget > 0 ->
            decr budget;
            record pid [ a ];
            deliver_chain ~pid:dst (E.on_deliver t ~pid:dst ~src:pid)
        | Env.Send _ -> ()
        | Env.Internal | Env.Checkpoint -> record pid [ a ])
      acts
  in
  for _ = 1 to ticks do
    for pid = 0 to n - 1 do
      let { Env.actions = acts; next_tick_in } = E.on_tick t ~pid in
      (match next_tick_in with
      | Some d -> check "tick delay positive" true (d >= 0)
      | None -> ());
      deliver_chain ~pid acts
    done
  done;
  List.rev !actions

let sends actions =
  List.filter_map (function pid, Env.Send d -> Some (pid, d) | _ -> None) actions

let test_valid_destinations () =
  List.iter
    (fun (name, _, env) ->
      let acts = drive env in
      List.iter
        (fun (pid, dst) ->
          if dst < 0 || dst >= 6 || dst = pid then
            Alcotest.failf "%s: send %d -> %d invalid" name pid dst)
        (sends acts))
    Rdt_workloads.Registry.all

let test_environments_communicate () =
  List.iter
    (fun (name, _, env) ->
      let acts = drive env in
      if sends acts = [] then Alcotest.failf "%s never sends" name)
    Rdt_workloads.Registry.all

let test_environment_determinism () =
  List.iter
    (fun (name, _, env) ->
      let a = drive ~seed:9 env and b = drive ~seed:9 env in
      if a <> b then Alcotest.failf "%s not deterministic" name)
    Rdt_workloads.Registry.all

let test_registry_lookup () =
  check "find random" true (Option.is_some (Rdt_workloads.Registry.find "random"));
  check "find nothing" true (Option.is_none (Rdt_workloads.Registry.find "nope"));
  Alcotest.(check int) "seven environments" 7 (List.length Rdt_workloads.Registry.all);
  check "names match" true
    (List.sort compare Rdt_workloads.Registry.names
    = List.sort compare
        [ "random"; "group"; "client-server"; "ring"; "prodcons"; "master-worker"; "stencil" ])

let test_client_server_chain_topology () =
  let acts = drive ~n:5 Rdt_workloads.Client_server.env in
  List.iter
    (fun (pid, dst) ->
      if abs (pid - dst) <> 1 then
        Alcotest.failf "client-server sent %d -> %d (not a chain neighbour)" pid dst)
    (sends acts)

let test_ring_topology () =
  let acts = drive ~n:5 Rdt_workloads.Ring_env.env in
  List.iter
    (fun (pid, dst) ->
      if dst <> (pid + 1) mod 5 then Alcotest.failf "ring sent %d -> %d" pid dst)
    (sends acts)

let test_prodcons_topology () =
  let acts = drive ~n:6 Rdt_workloads.Prodcons_env.env in
  (* producers 0..2, consumers 3..5; producers send forward, consumers
     only ack back to producers *)
  List.iter
    (fun (pid, dst) ->
      let ok = (pid < 3 && dst >= 3) || (pid >= 3 && dst < 3) in
      if not ok then Alcotest.failf "prodcons sent %d -> %d" pid dst)
    (sends acts)

let test_master_worker_topology () =
  let acts = drive ~n:5 Rdt_workloads.Master_worker.env in
  List.iter
    (fun (pid, dst) ->
      if pid <> 0 && dst <> 0 then Alcotest.failf "master-worker sent %d -> %d" pid dst)
    (sends acts)

let test_stencil_topology () =
  let acts = drive ~n:6 Rdt_workloads.Stencil_env.env in
  List.iter
    (fun (pid, dst) ->
      let d = (dst - pid + 6) mod 6 in
      if d <> 1 && d <> 5 then Alcotest.failf "stencil sent %d -> %d (not a ring neighbour)" pid dst)
    (sends acts)

let test_group_membership () =
  (* every destination of an intra-group send shares a group with the
     sender; with multicast_prob 1.0 and intra 1.0 every send is a
     multicast within one group *)
  let params =
    { Rdt_workloads.Group_env.multicast_prob = 1.0; intra_prob = 1.0; group_size = 3; overlap = 1 }
  in
  let n = 8 in
  let acts = drive ~n (Rdt_workloads.Group_env.make ~params ()) in
  (* groups are windows of 3 starting every 2: {0,1,2},{2,3,4},{4,5,6},{6,7,0} *)
  let stride = 2 in
  let shares_group pid dst =
    let in_group g p = p = g || p = (g + 1) mod n || p = (g + 2) mod n in
    let rec scan g = g < n && ((in_group g pid && in_group g dst) || scan (g + stride)) in
    scan 0
  in
  List.iter
    (fun (pid, dst) ->
      if not (shares_group pid dst) then
        Alcotest.failf "group env sent %d -> %d outside any common group" pid dst)
    (sends acts)

let test_group_validation () =
  Alcotest.check_raises "bad overlap"
    (Invalid_argument "Group_env: overlap out of [0, group_size)") (fun () ->
      ignore
        (Rdt_workloads.Group_env.make
           ~params:{ Rdt_workloads.Group_env.default_group_params with overlap = 5; group_size = 3 }
           ()))

(* every environment should run under the runtime and yield a valid
   pattern with at least some traffic *)
let test_runtime_integration () =
  List.iter
    (fun (name, _, env) ->
      let r =
        Rdt_core.Runtime.run
          {
            (Rdt_core.Runtime.default_config env (Rdt_core.Registry.find_exn "fdas")) with
            Rdt_core.Runtime.n = 5;
            seed = 77;
            max_messages = 300;
          }
      in
      Alcotest.(check int) (name ^ ": full budget used") 300 r.metrics.Rdt_core.Metrics.messages;
      match Rdt_pattern.Pattern.validate r.pattern with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: invalid pattern: %s" name e)
    Rdt_workloads.Registry.all

let () =
  Alcotest.run "rdt_workloads"
    [
      ( "generic",
        [
          Alcotest.test_case "valid destinations" `Quick test_valid_destinations;
          Alcotest.test_case "environments communicate" `Quick test_environments_communicate;
          Alcotest.test_case "deterministic" `Quick test_environment_determinism;
          Alcotest.test_case "registry" `Quick test_registry_lookup;
          Alcotest.test_case "runtime integration" `Quick test_runtime_integration;
        ] );
      ( "topologies",
        [
          Alcotest.test_case "client-server chain" `Quick test_client_server_chain_topology;
          Alcotest.test_case "ring" `Quick test_ring_topology;
          Alcotest.test_case "prodcons bipartite" `Quick test_prodcons_topology;
          Alcotest.test_case "master-worker hub" `Quick test_master_worker_topology;
          Alcotest.test_case "stencil neighbours" `Quick test_stencil_topology;
          Alcotest.test_case "group membership" `Quick test_group_membership;
          Alcotest.test_case "group validation" `Quick test_group_validation;
        ] );
    ]
