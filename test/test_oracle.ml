(* Oracle cross-checks: brute-force Z-path enumeration vs the optimised
   analyses and all three RDT checkers.

   On small random patterns:
   - explicit DFS over the message graph (the textbook Z-path definition)
     agrees with the R-graph: [Rgraph.reaches (i,x) (j,y)] iff the pair is
     a same-process forward pair or some Z-path leaves [P_i] in an
     interval >= x and is delivered to [P_j] in an interval <= y;
   - the same enumeration agrees with [Chains.zigzag] (Netzer-Xu form);
   - the fully naive RDT verdict — every R-path pair (by naive closure)
     is trackable (by naive causal-chain search) — matches [Checker.run],
     [Checker.run ~algo:`Chains] and [Checker.run ~algo:`Doubling]. *)

module P = Rdt_pattern.Pattern
module T = Rdt_pattern.Types
module Rgraph = Rdt_pattern.Rgraph
module Chains = Rdt_pattern.Chains
module Checker = Rdt_core.Checker
module Naive = Rdt_test_helpers.Naive

let qt = QCheck_alcotest.to_alcotest

let all_ckpts pat =
  let cks = ref [] in
  P.iter_ckpts pat (fun c -> cks := (c.T.owner, c.T.index) :: !cks);
  !cks

(* Brute-force Z-path enumeration, straight from the definition: is there
   a message chain [m_1; ...; m_q] with [src m_1 = i],
   [send_interval m_1 >= x0], [dst m_q = j], [recv_interval m_q <= y],
   and [m_{v+1}] sent by [dst m_v] no earlier than the interval that
   delivered [m_v]? *)
let zpath pat ~i ~x0 ~j ~y =
  let msgs = P.messages pat in
  let nm = Array.length msgs in
  let visited = Array.make nm false in
  let rec dfs id =
    let m = msgs.(id) in
    (m.T.dst = j && m.T.recv_interval <= y)
    || (not visited.(id))
       && begin
            visited.(id) <- true;
            let found = ref false in
            for id' = 0 to nm - 1 do
              let m' = msgs.(id') in
              if (not !found) && m'.T.src = m.T.dst && m.T.recv_interval <= m'.T.send_interval
              then found := dfs id'
            done;
            !found
          end
  in
  let found = ref false in
  for id = 0 to nm - 1 do
    if (not !found) && msgs.(id).T.src = i && msgs.(id).T.send_interval >= x0 then
      found := dfs id
  done;
  !found

let zpath_equals_rgraph =
  QCheck.Test.make ~name:"R-graph reachability = same-process order or Z-path" ~count:60
    Rdt_test_helpers.Gen.small_recipe_arbitrary (fun recipe ->
      let pat = Rdt_test_helpers.Gen.pattern_of_recipe recipe in
      let g = Rgraph.build pat in
      let cks = all_ckpts pat in
      List.for_all
        (fun (i, x) ->
          List.for_all
            (fun (j, y) ->
              Rgraph.reaches g (i, x) (j, y) = ((i = j && x <= y) || zpath pat ~i ~x0:x ~j ~y))
            cks)
        cks)

let zpath_equals_chains_zigzag =
  QCheck.Test.make ~name:"Z-path enumeration = Chains.zigzag (Netzer-Xu)" ~count:60
    Rdt_test_helpers.Gen.small_recipe_arbitrary (fun recipe ->
      let pat = Rdt_test_helpers.Gen.pattern_of_recipe recipe in
      (* zigzag after C_{i,x}: first message sent in an interval >= x+1 *)
      let cks = all_ckpts pat in
      List.for_all
        (fun (i, x) ->
          List.for_all
            (fun (j, y) -> Chains.zigzag pat (i, x) (j, y) = zpath pat ~i ~x0:(x + 1) ~j ~y)
            cks)
        cks)

let naive_rdt pat =
  (* RDT from first principles: every R-path pair (naive closure over the
     naive edge list) is trackable (naive causal-chain DFS) *)
  let cks = all_ckpts pat in
  List.for_all
    (fun a ->
      List.for_all (fun b -> (not (Naive.reaches pat a b)) || Naive.trackable pat a b) cks)
    cks

let naive_rdt_matches_checkers =
  QCheck.Test.make ~name:"naive RDT verdict = all three checkers" ~count:100
    Rdt_test_helpers.Gen.small_recipe_arbitrary (fun recipe ->
      let pat = Rdt_test_helpers.Gen.pattern_of_recipe recipe in
      let expect = naive_rdt pat in
      (Checker.run pat).Checker.rdt = expect
      && (Checker.run ~algo:`Chains pat).Checker.rdt = expect
      && (Checker.run ~algo:`Doubling pat).Checker.rdt = expect)

(* Directed sanity anchors on the paper's fixtures, so a silent generator
   regression (e.g. only trivial patterns) cannot mask the properties. *)
let test_fixture_verdicts () =
  let fx = Rdt_test_helpers.Fixtures.figure1 () in
  Alcotest.(check bool) "figure 1 is not RDT (naive)" false (naive_rdt fx.pattern);
  Alcotest.(check bool) "figure 1 is not RDT (checker)" false
    (Checker.run fx.pattern).Checker.rdt;
  let pat = Rdt_test_helpers.Fixtures.pairwise_insufficient () in
  Alcotest.(check bool) "pairwise-insufficient fixture agrees" (naive_rdt pat)
    (Checker.run pat).Checker.rdt

(* The same-process edge of trackability (§4.1.2): a Z-path can close an
   R-path from a checkpoint back to an *earlier* checkpoint of the same
   process, and a backwards R-path is never trackable — no causal chain
   runs back in time.  Construction: m2 is sent by P1 before it receives
   m1, but both fall in P1's single interval, so [m1; m2] is a Z-path
   from after C_{0,2} to before C_{0,1}, giving C_{0,2} ~> C_{0,1}. *)
let test_backwards_same_process_rpath () =
  let b = P.Builder.create ~n:2 in
  let m2 = P.Builder.send b ~src:1 ~dst:0 in
  P.Builder.recv b m2;
  ignore (P.Builder.checkpoint ~time:30 b 0) (* C_{0,1} *);
  ignore (P.Builder.checkpoint ~time:40 b 0) (* C_{0,2} *);
  let m1 = P.Builder.send b ~src:0 ~dst:1 in
  P.Builder.recv b m1;
  let pat = P.Builder.finish b in
  Alcotest.(check bool) "zigzag closes the backwards pair" true
    (zpath pat ~i:0 ~x0:2 ~j:0 ~y:1);
  let g = Rgraph.build pat in
  Alcotest.(check bool) "R-graph has C_{0,2} ~> C_{0,1}" true (Rgraph.reaches g (0, 2) (0, 1));
  Alcotest.(check bool) "not RDT (naive oracle)" false (naive_rdt pat);
  Alcotest.(check bool) "not RDT (R-graph vs TDV)" false (Checker.run pat).Checker.rdt;
  Alcotest.(check bool) "not RDT (chain search)" false (Checker.run ~algo:`Chains pat).Checker.rdt;
  Alcotest.(check bool) "not RDT (CM doubling)" false (Checker.run ~algo:`Doubling pat).Checker.rdt

let test_zpath_nontrivial () =
  (* the generator must exercise both verdicts *)
  let verdicts =
    List.init 40 (fun seed ->
        naive_rdt (Rdt_test_helpers.Gen.random_pattern ~n:3 ~steps:25 ~seed ()))
  in
  Alcotest.(check bool) "both RDT and non-RDT patterns occur" true
    (List.mem true verdicts && List.mem false verdicts)

let () =
  Alcotest.run "rdt_oracle"
    [
      ( "z-paths",
        [ qt zpath_equals_rgraph; qt zpath_equals_chains_zigzag ] );
      ( "rdt verdict",
        [
          qt naive_rdt_matches_checkers;
          Alcotest.test_case "paper fixtures" `Quick test_fixture_verdicts;
          Alcotest.test_case "backwards same-process R-path" `Quick
            test_backwards_same_process_rpath;
          Alcotest.test_case "generator exercises both verdicts" `Quick test_zpath_nontrivial;
        ] );
    ]
