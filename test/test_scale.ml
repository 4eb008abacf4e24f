(* The scaled engine: determinism across worker counts, conservation of
   the deterministic counters, and — the acceptance witness — agreement
   of all four offline checker algorithms plus the online engine on a
   pattern the sharded core actually produced.  The CBR forced-checkpoint
   rule is purely local and guarantees RDT, so every traced pattern must
   verify clean. *)

module Scale = Rdt_harness.Scale
module Checker = Rdt_core.Checker
module Online = Rdt_check.Online
module P = Rdt_pattern.Pattern

let check = Alcotest.(check bool)

let params ~n ~messages ~seed = { Scale.n; messages; seed }

let test_bit_identical_across_jobs () =
  let p = params ~n:512 ~messages:6_000 ~seed:11 in
  let base = Scale.run ~jobs:1 p in
  List.iter
    (fun jobs ->
      let r = Scale.run ~jobs p in
      Alcotest.(check string)
        (Printf.sprintf "jobs=%d output identical" jobs)
        (Format.asprintf "%a" Scale.pp_result base)
        (Format.asprintf "%a" Scale.pp_result r))
    [ 2; 4; 8 ]

let test_conservation () =
  let p = params ~n:300 ~messages:4_321 ~seed:5 in
  let r = Scale.run ~jobs:2 p in
  Alcotest.(check int) "sent = messages" 4_321 r.Scale.sent;
  Alcotest.(check int) "delivered = sent" r.Scale.sent r.Scale.delivered;
  Alcotest.(check int) "events = sends + deliveries" (2 * 4_321) r.Scale.events;
  check "payload entries accumulate" true (r.Scale.payload_entries > 0);
  check "payload bytes cover entries" true (r.Scale.payload_bytes >= 16 * r.Scale.payload_entries);
  check "forced checkpoints occur" true (r.Scale.ckpts_forced > 0);
  Alcotest.(check int) "no messages -> no events" 0
    (Scale.run ~jobs:1 (params ~n:16 ~messages:0 ~seed:1)).Scale.events

let test_seed_sensitivity () =
  let r1 = Scale.run ~jobs:1 (params ~n:128 ~messages:2_000 ~seed:1) in
  let r2 = Scale.run ~jobs:1 (params ~n:128 ~messages:2_000 ~seed:2) in
  check "different seeds diverge" true (r1.Scale.checksum <> r2.Scale.checksum)

let test_shards_independent_of_jobs () =
  let shards ~jobs n = (Scale.run ~jobs (params ~n ~messages:0 ~seed:1)).Scale.shards in
  Alcotest.(check int) "the shard count is a function of n" (shards ~jobs:1 10_000)
    (shards ~jobs:4 10_000);
  check "multiple shards at n=10_000" true (shards ~jobs:1 10_000 > 1);
  Alcotest.(check int) "single shard for tiny n" 1 (shards ~jobs:1 64)

(* the acceptance criterion: four Checker.run algorithms + the online
   engine agree on traces of the sharded engine *)
let test_checkers_agree_on_traced_run () =
  List.iter
    (fun (n, messages, seed) ->
      let r, pat = Scale.run_traced (params ~n ~messages ~seed) in
      check "traced = untraced result" true (r = Scale.run ~jobs:1 (params ~n ~messages ~seed));
      Alcotest.(check int) "pattern carries every message" messages (P.num_messages pat);
      (match P.validate pat with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("invalid pattern from sharded engine: " ^ e));
      let reports = List.map (fun algo -> Checker.run ~algo pat) Checker.all_algos in
      List.iter
        (fun (rep : Checker.report) ->
          check
            (Printf.sprintf "algo %s says RDT (CBR guarantees it)" (Checker.algo_name rep.Checker.algo))
            true rep.Checker.rdt)
        reports;
      let t = Online.check_pattern pat in
      check "online engine agrees" true (Online.rdt_so_far t))
    [ (16, 200, 3); (64, 800, 7); (128, 1_500, 42) ]

let () =
  Alcotest.run "rdt_scale"
    [
      ( "determinism",
        [
          Alcotest.test_case "bit-identical across jobs" `Quick test_bit_identical_across_jobs;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "shards from n only" `Quick test_shards_independent_of_jobs;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "conservation" `Quick test_conservation;
          Alcotest.test_case "checkers agree on traced runs" `Quick test_checkers_agree_on_traced_run;
        ] );
    ]
