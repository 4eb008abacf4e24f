(* Properties of the sharded event substrate.

   The guarantee under test: a shard's observable execution — the exact
   sequence of (time, payload) its handler sees — is a function of the
   seeded scenario only, never of the order shards are stepped within an
   epoch (which is what varies with the driver's worker count).  Plus
   conservation (every message handled exactly once), in-shard time
   ordering against the horizon, and the lookahead guard on [post]. *)

module Shard = Rdt_dist.Shard
module Rng = Rdt_dist.Rng

let qt = QCheck_alcotest.to_alcotest

(* A seeded scenario: token-passing between shards.  Each initial token
   carries a hop budget; handling a token at shard s re-posts it to a
   derived destination after a derived delay >= lookahead (cross-shard)
   or reschedules locally with any smaller delay. *)
type scenario = { shards : int; seed : int; lookahead : int; tokens : int; hops : int }

let gen_scenario =
  QCheck.Gen.(
    map
      (fun (shards, seed, (lookahead, tokens, hops)) -> { shards; seed; lookahead; tokens; hops })
      (triple (int_range 1 8) (int_bound 1_000_000)
         (triple (int_range 1 20) (int_range 1 40) (int_range 1 30))))

let arb_scenario =
  QCheck.make gen_scenario ~print:(fun s ->
      Printf.sprintf "{shards=%d; seed=%d; lookahead=%d; tokens=%d; hops=%d}" s.shards s.seed
        s.lookahead s.tokens s.hops)

(* Run the scenario, stepping shards in the order produced by [order]
   each epoch; returns the per-shard logs of (time, token id, hop). *)
let run s ~order =
  let t = Shard.create ~shards:s.shards ~seed:s.seed ~lookahead:s.lookahead () in
  for k = 0 to s.tokens - 1 do
    Shard.schedule t ~shard:(k mod s.shards) ~time:(k land 3) (k, s.hops)
  done;
  let logs = Array.make s.shards [] in
  let handler shard ~time (id, hops) =
    logs.(shard) <- (time, id, hops) :: logs.(shard);
    if hops > 0 then begin
      (* derived, order-independent routing *)
      let h = Rng.derive_seed s.seed (Printf.sprintf "hop.%d.%d" id hops) in
      let dst = h mod s.shards in
      if dst = shard then
        (* local hop: may be arbitrarily soon *)
        Shard.schedule t ~shard ~time:(time + 1 + (h mod 3)) (id, hops - 1)
      else
        (* cross-shard: respects the lookahead *)
        Shard.post t ~src:shard ~dst ~time:(time + s.lookahead + (h mod 5)) (id, hops - 1)
    end
  in
  let epochs = ref 0 in
  while not (Shard.finished t) do
    incr epochs;
    if !epochs > 100_000 then failwith "did not drain";
    Shard.exchange t;
    List.iter (fun shard -> ignore (Shard.step t ~shard ~handler:(handler shard))) (order !epochs)
  done;
  (Array.map List.rev logs, Shard.total_stepped t)

let ascending s _ = List.init s.shards Fun.id

let prop_step_order_invisible =
  QCheck.Test.make ~count:120 ~name:"per-shard logs independent of step order" arb_scenario
    (fun s ->
      let base, n1 = run s ~order:(ascending s) in
      (* descending every epoch *)
      let desc, n2 = run s ~order:(fun _ -> List.rev (ascending s 0)) in
      (* rotating: epoch e starts at shard e mod shards *)
      let rot, n3 =
        run s ~order:(fun e ->
            let k = e mod s.shards in
            let ids = Array.to_list (Array.init s.shards (fun i -> (i + k) mod s.shards)) in
            ids)
      in
      if base <> desc then QCheck.Test.fail_reportf "descending step order changed a shard log";
      if base <> rot then QCheck.Test.fail_reportf "rotating step order changed a shard log";
      n1 = n2 && n2 = n3)

let prop_conservation =
  QCheck.Test.make ~count:120 ~name:"every token handled exactly (hops+1) times" arb_scenario
    (fun s ->
      let logs, total = run s ~order:(ascending s) in
      let per_token = Array.make s.tokens 0 in
      Array.iter (List.iter (fun (_, id, _) -> per_token.(id) <- per_token.(id) + 1)) logs;
      if total <> s.tokens * (s.hops + 1) then
        QCheck.Test.fail_reportf "total_stepped %d <> %d" total (s.tokens * (s.hops + 1));
      Array.for_all (fun c -> c = s.hops + 1) per_token)

let prop_times_nondecreasing =
  QCheck.Test.make ~count:120 ~name:"per-shard handler times are non-decreasing" arb_scenario
    (fun s ->
      let logs, _ = run s ~order:(ascending s) in
      Array.for_all
        (fun log ->
          let rec ok = function
            | (t1, _, _) :: ((t2, _, _) :: _ as rest) -> t1 <= t2 && ok rest
            | _ -> true
          in
          ok log)
        logs)

let test_post_below_horizon_rejected () =
  let t = Shard.create ~shards:2 ~seed:7 ~lookahead:10 () in
  Shard.schedule t ~shard:0 ~time:50 ();
  Shard.exchange t;
  (* the horizon is now the earliest pending time plus the lookahead, 60 *)
  Alcotest.(check bool) "post below horizon raises" true
    (try
       Shard.post t ~src:0 ~dst:1 ~time:59 ();
       false
     with Invalid_argument _ -> true);
  Shard.post t ~src:0 ~dst:1 ~time:60 ();
  Alcotest.(check bool) "not finished with pending outbox" false (Shard.finished t)

let test_validation () =
  Alcotest.(check bool) "shards >= 1" true
    (try
       ignore (Shard.create ~shards:0 ~seed:1 ~lookahead:1 ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "lookahead >= 1" true
    (try
       ignore (Shard.create ~shards:1 ~seed:1 ~lookahead:0 ());
       false
     with Invalid_argument _ -> true);
  let t = Shard.create ~shards:2 ~seed:1 ~lookahead:1 () in
  Alcotest.(check bool) "bad shard" true
    (try
       Shard.schedule t ~shard:2 ~time:0 ();
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "rdt_shard"
    [
      ( "determinism",
        [ qt prop_step_order_invisible; qt prop_conservation; qt prop_times_nondecreasing ] );
      ( "edges",
        [
          Alcotest.test_case "post below horizon" `Quick test_post_below_horizon_rejected;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
    ]
