(* Suite for the adversarial scenario fuzzer (lib/fuzz).

   - generation: every seed yields a scenario the validator accepts;
     generation is a pure function of the seed and the JSON codec
     round-trips exactly;
   - intermittent links: the flapping-window cut formula, its
     validation, and a full run drained through a flapping host;
   - campaigns: a healthy tree passes a whole budgeted campaign, and
     the report is bit-identical whatever order the mapper executes the
     cells in;
   - mutation pipeline: with a sanctioned checker mutation the
     machinery finds a divergence and shrinks it to a strictly smaller
     scenario that still reproduces, and a second pass confirms the
     result is 1-minimal;
   - oracle: the first-principles RDT oracle agrees with the R-graph
     checker on random small patterns. *)

module Scenario = Rdt_fuzz.Scenario
module Exec = Rdt_fuzz.Exec
module Shrink = Rdt_fuzz.Shrink
module Fuzzer = Rdt_fuzz.Fuzzer
module Oracle = Rdt_fuzz.Oracle
module Faults = Rdt_dist.Faults
module Channel = Rdt_dist.Channel
module Checker = Rdt_core.Checker
module Gen = Rdt_test_helpers.Gen

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let qt = QCheck_alcotest.to_alcotest

let seeds k = List.init k (fun i -> i + 1)

(* ------------------------------------------------------------------ *)
(* Scenario generation and codec                                       *)
(* ------------------------------------------------------------------ *)

let test_generate_valid () =
  List.iter
    (fun seed ->
      let sc = Scenario.generate ~seed in
      match Scenario.validate sc with
      | Ok () -> ()
      | Error e -> Alcotest.failf "seed %d: generated scenario invalid: %s" seed e)
    (seeds 200)

let test_generate_pure () =
  List.iter
    (fun seed ->
      check "same seed, same scenario" true
        (Scenario.equal (Scenario.generate ~seed) (Scenario.generate ~seed)))
    (seeds 50);
  let sizes =
    List.sort_uniq compare
      (List.map (fun s -> Scenario.size (Scenario.generate ~seed:s)) (seeds 50))
  in
  check "seeds explore different sizes" true (List.length sizes > 5)

(* the codec is reached through its files *)
let through_file write =
  let path = Filename.temp_file "rdt-fuzz-test" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      write path;
      Scenario.of_file path)

let decode s =
  through_file (fun path -> Out_channel.with_open_bin path (fun oc -> output_string oc s))

let test_codec_roundtrip () =
  List.iter
    (fun seed ->
      let sc = Scenario.generate ~seed in
      match through_file (fun path -> Scenario.to_file path sc) with
      | Ok sc' -> check "roundtrip" true (Scenario.equal sc sc')
      | Error e -> Alcotest.failf "seed %d: decode failed: %s" seed e)
    (seeds 100)

let test_file_roundtrip () =
  let sc = Scenario.generate ~seed:11 in
  let path = Filename.temp_file "rdt-fuzz-test" ".json" in
  Scenario.to_file path sc;
  let back = Scenario.of_file path in
  Sys.remove path;
  match back with
  | Ok sc' -> check "file roundtrip" true (Scenario.equal sc sc')
  | Error e -> Alcotest.failf "of_file: %s" e

let test_decode_garbage () =
  check "truncated json rejected" true (Result.is_error (decode "{"));
  check "wrong shape rejected" true (Result.is_error (decode "[1, 2]"));
  check "missing fields rejected" true (Result.is_error (decode "{\"n\": 3}"))

let test_restrict () =
  List.iter
    (fun seed ->
      let sc = Scenario.generate ~seed in
      if sc.Scenario.n > 2 then begin
        let r = Scenario.restrict sc ~n:(sc.Scenario.n - 1) in
        (match Scenario.validate r with
        | Ok () -> ()
        | Error e -> Alcotest.failf "seed %d: restricted scenario invalid: %s" seed e);
        check "restrict shrinks the measure" true (Scenario.measure r < Scenario.measure sc)
      end)
    (seeds 60)

(* ------------------------------------------------------------------ *)
(* Intermittent (mobile-host) links                                    *)
(* ------------------------------------------------------------------ *)

let flaky = { Faults.host = 1; from_t = 10; to_t = 30; up = 3; down = 2 }

let flaky_spec = { Faults.none with intermittent = [ flaky ] }

let test_intermittent_cuts () =
  let cut t = Faults.cuts flaky_spec ~time:t ~src:0 ~dst:1 in
  check "before the window" false (cut 9);
  check "phase 0: up" false (cut 10);
  check "phase 2: up" false (cut 12);
  check "phase 3: down" true (cut 13);
  check "phase 4: down" true (cut 14);
  check "next cycle: up again" false (cut 15);
  check "next cycle: down again" true (cut 18);
  check "window over" false (cut 30);
  check "cut is bidirectional" true (Faults.cuts flaky_spec ~time:13 ~src:1 ~dst:0);
  check "unrelated link unaffected" false (Faults.cuts flaky_spec ~time:13 ~src:0 ~dst:2)

let test_intermittent_validate () =
  let ok spec = Result.is_ok (Faults.validate ~n:4 spec) in
  check "well-formed accepted" true (ok flaky_spec);
  check "zero up rejected" false
    (ok { Faults.none with intermittent = [ { flaky with up = 0 } ] });
  check "zero down rejected" false
    (ok { Faults.none with intermittent = [ { flaky with down = 0 } ] });
  check "host out of range rejected" false
    (ok { Faults.none with intermittent = [ { flaky with host = 4 } ] });
  check "reversed window rejected" false
    (ok { Faults.none with intermittent = [ { flaky with from_t = 31 } ] })

let test_intermittent_run_passes () =
  (* a hand-built scenario whose host 1 flaps for the whole run: the
     transport must drain it, and every cross-check must agree *)
  let sc =
    {
      Scenario.run_seed = 5;
      n = 3;
      protocol = "bhmr";
      env = "random";
      messages = 60;
      basic_period = (0, 0);
      channel = Channel.Fixed 5;
      faults =
        { Faults.none with intermittent = [ { Faults.host = 1; from_t = 0; to_t = 2_000; up = 40; down = 60 } ] };
      transport = true;
      retx_timeout = 80;
      max_retx = 30;
      crashes = [];
    }
  in
  (match Scenario.validate sc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid scenario: %s" e);
  match Exec.classify sc with
  | Exec.Pass -> ()
  | Exec.Fail { kind; detail } ->
      Alcotest.failf "intermittent run failed (%s): %s" (Exec.kind_name kind) detail

(* ------------------------------------------------------------------ *)
(* Campaigns                                                           *)
(* ------------------------------------------------------------------ *)

(* executes the cells back to front but returns results in order: a
   legal mapper that maximally perturbs execution order *)
let reversing = { Fuzzer.map = (fun f xs -> List.rev (List.map f (List.rev xs))) }

let test_campaign_healthy () =
  let cfg = { Fuzzer.default_config with budget = 30 } in
  let rep = Fuzzer.run cfg in
  check_int "scenarios" 30 rep.Fuzzer.scenarios;
  check_int "all ok" 30 rep.Fuzzer.counts.Fuzzer.ok;
  check "no failure" true (rep.Fuzzer.failure = None)

let test_campaign_mapper_independent () =
  let cfg = { Fuzzer.default_config with budget = 12 } in
  check "sequential = reversed execution order" true
    (Fuzzer.run cfg = Fuzzer.run ~mapper:reversing cfg)

let test_scenario_at_pure () =
  let a = { Fuzzer.default_config with budget = 5 } in
  let b = { Fuzzer.default_config with budget = 500 } in
  List.iter
    (fun i ->
      check "cell scenario independent of budget" true
        (Scenario.equal (Fuzzer.scenario_at a i) (Fuzzer.scenario_at b i)))
    [ 0; 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Mutation pipeline: find, shrink, reproduce                          *)
(* ------------------------------------------------------------------ *)

let first_failing mutation =
  let rec go seed =
    if seed > 500 then Alcotest.fail "no failing scenario within 500 seeds"
    else
      let sc = Scenario.generate ~seed in
      match Exec.classify ~mutation sc with Exec.Fail _ -> sc | Exec.Pass -> go (seed + 1)
  in
  go 1

let test_mutation_hide_rollbacks () =
  let sc = first_failing Exec.Hide_rollbacks in
  (* the mutation lives in the checking pipeline, not the simulation:
     the very same scenario is clean without it *)
  check "clean without the mutation" true (Exec.classify sc = Exec.Pass);
  let shrunk, outcome, stats = Shrink.minimize ~mutation:Exec.Hide_rollbacks sc in
  (match outcome with
  | Exec.Fail { kind = Exec.Checker_divergence; _ } -> ()
  | Exec.Fail { kind; _ } -> Alcotest.failf "expected a divergence, got %s" (Exec.kind_name kind)
  | Exec.Pass -> Alcotest.fail "expected a failure");
  check "shrinking did work" true (stats.Shrink.steps > 0);
  check "strictly smaller" true (Scenario.measure shrunk < Scenario.measure sc);
  (* --minimize semantics: the shrunk artifact still reproduces, with
     the same classification *)
  (match Exec.classify ~mutation:Exec.Hide_rollbacks shrunk with
  | Exec.Fail { kind = Exec.Checker_divergence; _ } -> ()
  | _ -> Alcotest.fail "shrunk scenario no longer reproduces the divergence");
  (* and it is a fixpoint: a second pass finds nothing to remove *)
  let again, _, stats2 = Shrink.minimize ~mutation:Exec.Hide_rollbacks shrunk in
  check "1-minimal" true (Scenario.equal again shrunk);
  check_int "no further steps" 0 stats2.Shrink.steps

let test_mutation_flip_rgraph_floor () =
  (* flip-rgraph fails every run, so the shrinker must reach the
     structural floor of the move set *)
  let sc = Scenario.generate ~seed:1 in
  let shrunk, _, _ = Shrink.minimize ~mutation:Exec.Flip_rgraph sc in
  check_int "two processes" 2 shrunk.Scenario.n;
  check_int "one message" 1 shrunk.Scenario.messages;
  check "no crashes" true (shrunk.Scenario.crashes = []);
  check "no faults" true (Faults.is_none shrunk.Scenario.faults);
  check "no transport" false shrunk.Scenario.transport;
  check "no basic checkpoints" true (shrunk.Scenario.basic_period = (0, 0))

let test_minimize_rejects_passing () =
  let sc = Scenario.generate ~seed:3 in
  match Fuzzer.minimize sc with
  | Error e -> check "explains there is nothing to do" true (e = "scenario passes all checks; nothing to minimize")
  | Ok _ -> Alcotest.fail "minimize accepted a passing scenario"

(* ------------------------------------------------------------------ *)
(* Oracle                                                              *)
(* ------------------------------------------------------------------ *)

let oracle_agrees =
  QCheck.Test.make ~count:80 ~name:"oracle agrees with the R-graph checker"
    Gen.small_recipe_arbitrary (fun recipe ->
      let pat = Gen.pattern_of_recipe recipe in
      QCheck.assume (Oracle.affordable pat);
      Oracle.rdt pat = (Checker.run pat).Checker.rdt)

let () =
  Alcotest.run "rdt_fuzz"
    [
      ( "scenario",
        [
          Alcotest.test_case "generation is valid" `Quick test_generate_valid;
          Alcotest.test_case "generation is pure" `Quick test_generate_pure;
          Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
          Alcotest.test_case "decode rejects garbage" `Quick test_decode_garbage;
          Alcotest.test_case "restrict stays valid" `Quick test_restrict;
        ] );
      ( "intermittent",
        [
          Alcotest.test_case "cut formula" `Quick test_intermittent_cuts;
          Alcotest.test_case "validation" `Quick test_intermittent_validate;
          Alcotest.test_case "flapping host drains" `Quick test_intermittent_run_passes;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "healthy tree passes" `Quick test_campaign_healthy;
          Alcotest.test_case "mapper order irrelevant" `Quick test_campaign_mapper_independent;
          Alcotest.test_case "cells are pure" `Quick test_scenario_at_pure;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "hide-rollbacks: find, shrink, reproduce" `Quick
            test_mutation_hide_rollbacks;
          Alcotest.test_case "flip-rgraph: shrink to the floor" `Quick
            test_mutation_flip_rgraph_floor;
          Alcotest.test_case "minimize rejects a passing scenario" `Quick
            test_minimize_rejects_passing;
        ] );
      ("oracle", [ qt oracle_agrees ]);
    ]
