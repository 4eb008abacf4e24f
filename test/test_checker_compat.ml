(* Pins the [Checker.run ?algo] entry point.

   The deprecated [check]/[check_chains]/[check_doubling] wrappers went
   through their deprecation cycle and are gone; [run ~algo] is the one
   way to invoke a specific checker.  This suite keeps the contract the
   wrappers used to pin: the default algorithm is [`Rgraph], the [algo]
   and [units] fields of the report identify what actually ran, and
   every algorithm returns the same verdict on the same pattern. *)

module Checker = Rdt_core.Checker
module Fixtures = Rdt_test_helpers.Fixtures
module Gen = Rdt_test_helpers.Gen

(* [seconds] is a measurement, not part of the verdict. *)
let strip (r : Checker.report) = { r with seconds = 0. }

let patterns () =
  let fig1 = (Fixtures.figure1 ()).Fixtures.pattern in
  let random = List.init 8 (fun i -> Gen.random_pattern ~seed:(1000 + i) ()) in
  fig1 :: Fixtures.two_crossing () :: Fixtures.zcycle_fixture ()
  :: Fixtures.pairwise_insufficient () :: Fixtures.causal_ping_pong () :: random

let test_default_is_rgraph () =
  List.iter
    (fun pat ->
      let d = strip (Checker.run pat) and r = strip (Checker.run ~algo:`Rgraph pat) in
      Alcotest.(check bool) "run = run ~algo:`Rgraph" true (d = r);
      Alcotest.(check string)
        "default algo field" "rgraph"
        (Checker.algo_name d.Checker.algo))
    (patterns ())

let test_algo_field_matches () =
  List.iter
    (fun algo ->
      List.iter
        (fun pat ->
          let r = Checker.run ~algo pat in
          Alcotest.(check string)
            "report.algo names the algorithm that ran"
            (Checker.algo_name algo)
            (Checker.algo_name r.Checker.algo))
        (patterns ()))
    Checker.all_algos

let test_verdicts_agree () =
  List.iter
    (fun pat ->
      let reports = List.map (fun algo -> Checker.run ~algo pat) Checker.all_algos in
      match reports with
      | [] -> Alcotest.fail "all_algos is empty"
      | first :: rest ->
          List.iter
            (fun (r : Checker.report) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s agrees with %s on rdt"
                   (Checker.algo_name r.Checker.algo)
                   (Checker.algo_name first.Checker.algo))
                first.Checker.rdt r.Checker.rdt)
            rest)
    (patterns ())

let test_units_label_population () =
  (* The unit of [checked] travels with the report so counts from
     different populations are never cross-compared: only [`Doubling]
     enumerates causal-message paths. *)
  List.iter
    (fun algo ->
      let pat = (Fixtures.figure1 ()).Fixtures.pattern in
      let r = Checker.run ~algo pat in
      let expected =
        match algo with `Doubling -> Checker.Cm_paths | _ -> Checker.R_dependencies
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s counts the right population" (Checker.algo_name algo))
        true
        (r.Checker.units = expected);
      Alcotest.(check bool)
        (Printf.sprintf "%s reports work done" (Checker.algo_name algo))
        true (r.Checker.checked > 0))
    Checker.all_algos

(* The [`Rgraph] report rebuilt from first principles: x* from a plain
   backward DFS over the R-graph's definition (no SCC condensation), the
   same (C_{j,y}, P_i) loop order, the same cap. *)
let reference_report pat =
  let tdv = Rdt_pattern.Tdv.compute pat in
  let x_stars = Rdt_test_helpers.Naive.max_reaching_indices pat in
  let checked = ref 0 and count = ref 0 and violations = ref [] in
  for j = 0 to Rdt_pattern.Pattern.n pat - 1 do
    for y = 0 to Rdt_pattern.Pattern.last_index pat j do
      Array.iteri
        (fun i x ->
          if x >= 0 then begin
            incr checked;
            if not (Rdt_pattern.Tdv.trackable tdv (i, x) (j, y)) then begin
              incr count;
              if !count <= Checker.max_reported then
                violations :=
                  {
                    Checker.from_ckpt = (i, x);
                    to_ckpt = (j, y);
                    tracked = Some (Rdt_pattern.Tdv.at tdv (j, y)).(i);
                  }
                  :: !violations
            end
          end)
        (x_stars (j, y))
    done
  done;
  (!count, !checked, List.rev !violations)

(* Holds [`Rgraph]'s report on [pat] to the reference; returns the
   violation count. *)
let check_reference what pat =
  let r = Checker.run ~algo:`Rgraph pat in
  let count, checked, violations = reference_report pat in
  Alcotest.(check bool) (what ^ ": rdt") (count = 0) r.Checker.rdt;
  Alcotest.(check int) (what ^ ": checked") checked r.Checker.checked;
  Alcotest.(check bool) (what ^ ": violations, in order") true (violations = r.Checker.violations);
  count

let test_rgraph_report_matches_reference () =
  (* [two_crossing] and [zcycle_fixture] have R-cycles: SCCs of more
     than one node *)
  List.iteri
    (fun k pat -> ignore (check_reference (Printf.sprintf "pattern %d" k) pat))
    (patterns ());
  let env = Rdt_workloads.Registry.find_exn "random" in
  List.iter
    (fun (pname, n) ->
      let protocol = Rdt_core.Registry.find_exn pname in
      let pat =
        (Rdt_core.Runtime.run (Rdt_core.Runtime.configure ~n ~messages:400 env protocol))
          .Rdt_core.Runtime.pattern
      in
      let what = Printf.sprintf "%s n=%d" pname n in
      let count = check_reference what pat in
      if pname = "none" then
        Alcotest.(check bool) (what ^ ": more violations than reported") true
          (count > Checker.max_reported))
    [ ("none", 8); ("none", 16); ("fdas", 8); ("fdas", 16); ("bhmr", 8); ("bhmr", 16) ]

let () =
  Alcotest.run "checker-compat"
    [
      ( "run ~algo contract",
        [
          Alcotest.test_case "default algo is `Rgraph" `Quick test_default_is_rgraph;
          Alcotest.test_case "report.algo matches request" `Quick test_algo_field_matches;
          Alcotest.test_case "all algorithms agree on verdicts" `Quick test_verdicts_agree;
          Alcotest.test_case "units label their population" `Quick test_units_label_population;
          Alcotest.test_case "`Rgraph report = naive x* reference" `Quick
            test_rgraph_report_matches_reference;
        ] );
    ]
