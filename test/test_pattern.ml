(* Tests for rdt_pattern: the pattern builder, the R-graph, TDV replay,
   message chains / Z-paths, and consistency — including exact checks on
   the paper's Figure 1 and property tests against naive reference
   implementations. *)

module P = Rdt_pattern.Pattern
module T = Rdt_pattern.Types
module Rgraph = Rdt_pattern.Rgraph
module Tdv = Rdt_pattern.Tdv
module Chains = Rdt_pattern.Chains
module Consistency = Rdt_pattern.Consistency
module History = Rdt_pattern.History

let check = Alcotest.(check bool)
let qt = QCheck_alcotest.to_alcotest

let all_ckpts pat =
  P.fold_ckpts pat ~init:[] ~f:(fun acc c -> (c.T.owner, c.T.index) :: acc)

(* ------------------------------------------------------------------ *)
(* Builder and accessors                                               *)
(* ------------------------------------------------------------------ *)

let test_builder_initial_checkpoints () =
  let b = P.Builder.create ~n:3 in
  let pat = P.Builder.finish b in
  Alcotest.(check int) "n" 3 (P.n pat);
  for i = 0 to 2 do
    let cks = P.checkpoints pat i in
    Alcotest.(check int) "one ckpt" 1 (Array.length cks);
    check "initial kind" true (cks.(0).T.kind = T.Initial)
  done;
  check "valid" true (Result.is_ok (P.validate pat))

let test_builder_rejects_bad_usage () =
  let b = P.Builder.create ~n:2 in
  Alcotest.check_raises "self send" (Invalid_argument "Pattern.Builder.send: src = dst")
    (fun () -> ignore (P.Builder.send b ~src:1 ~dst:1));
  let m = P.Builder.send b ~src:0 ~dst:1 in
  P.Builder.recv b m;
  Alcotest.check_raises "double recv"
    (Invalid_argument "Pattern.Builder.recv: message already delivered") (fun () ->
      P.Builder.recv b m)

let test_builder_undelivered_rejected () =
  let b = P.Builder.create ~n:2 in
  ignore (P.Builder.send b ~src:0 ~dst:1);
  Alcotest.check_raises "finish with in-flight"
    (Invalid_argument "Pattern.Builder.finish: undelivered messages remain") (fun () ->
      ignore (P.Builder.finish b))

let test_builder_final_checkpoints () =
  let b = P.Builder.create ~n:2 in
  let m = P.Builder.send b ~src:0 ~dst:1 in
  P.Builder.recv b m;
  let pat = P.Builder.finish b in
  check "final on 0" true ((P.checkpoints pat 0).(1).T.kind = T.Final);
  check "final on 1" true ((P.checkpoints pat 1).(1).T.kind = T.Final);
  (* a process whose last event is already a checkpoint gets no final *)
  let b2 = P.Builder.create ~n:2 in
  let m2 = P.Builder.send b2 ~src:0 ~dst:1 in
  P.Builder.recv b2 m2;
  ignore (P.Builder.checkpoint b2 0);
  ignore (P.Builder.checkpoint b2 1);
  let pat2 = P.Builder.finish b2 in
  Alcotest.(check int) "no extra ckpt" 2 (Array.length (P.checkpoints pat2 0))

let test_intervals () =
  let b = P.Builder.create ~n:2 in
  let m = P.Builder.send b ~src:0 ~dst:1 in
  ignore (P.Builder.checkpoint b 0);
  let m' = P.Builder.send b ~src:0 ~dst:1 in
  P.Builder.recv b m;
  P.Builder.recv b m';
  let pat = P.Builder.finish b in
  let msg = P.message pat m and msg' = P.message pat m' in
  Alcotest.(check int) "m in I_{0,1}" 1 msg.T.send_interval;
  Alcotest.(check int) "m' in I_{0,2}" 2 msg'.T.send_interval;
  Alcotest.(check int) "both delivered in I_{1,1}" 1 msg.T.recv_interval

let visited pat =
  let out = ref [] in
  P.iter_in_order pat (fun i pos ev -> out := (i, pos, ev) :: !out);
  Array.of_list (List.rev !out)

let test_gseq_order () =
  let fx = Rdt_test_helpers.Fixtures.figure1 () in
  let pat = fx.pattern in
  let order = visited pat in
  (* globally sorted and a permutation of all events *)
  let total = Array.fold_left (fun acc i -> acc + Array.length (P.events pat i)) 0
      (Array.init (P.n pat) (fun i -> i)) in
  Alcotest.(check int) "all events" total (Array.length order);
  (* program order within each process, and every send before its delivery *)
  let next = Array.make (P.n pat) 0 and sent = Hashtbl.create 8 in
  Array.iter
    (fun (i, pos, ev) ->
      check "program order" true (pos = next.(i));
      next.(i) <- pos + 1;
      match ev with
      | T.Send m -> Hashtbl.replace sent m ()
      | T.Recv m -> check "send before delivery" true (Hashtbl.mem sent m)
      | T.Ckpt _ | T.Internal -> ())
    order

(* [iter_in_order] visits exactly what the sort by gseq yields. *)
let order_agrees pat gseqs = visited pat = Rdt_test_helpers.Naive.gseq_order pat ~gseqs

let test_order_fixtures () =
  List.iter
    (fun (name, pat, gseqs) -> check name true (order_agrees pat gseqs))
    (Rdt_test_helpers.Fixtures.logged ())

let order_matches_sort =
  QCheck.Test.make ~name:"iter_in_order = sort by gseq" ~count:200
    QCheck.(make ~print:string_of_int Gen.nat)
    (fun seed ->
      let pat, gseqs = Rdt_test_helpers.Gen.random_pattern_logged ~seed () in
      order_agrees pat gseqs)

(* A fuzz scenario run as [Rdt_fuzz.Exec] configures it, with an online
   engine on its trace: the runtime's pattern (built directly, or by
   [History.to_pattern] after a crash) and the engine's history of the
   trace, whose [seq]s give the reference order. *)
let traced_run (sc : Rdt_fuzz.Scenario.t) =
  let eng = Rdt_check.Online.create ~n:sc.n () in
  let transport =
    if sc.transport then
      Some { Rdt_dist.Transport.retx_timeout = sc.retx_timeout; max_retx = sc.max_retx }
    else None
  in
  let r =
    Rdt_core.Runtime.run
      (Rdt_core.Runtime.configure ~n:sc.n ~seed:sc.run_seed ~messages:sc.messages
         ~channel:sc.channel ~basic_period:sc.basic_period ~crashes:sc.crashes ~faults:sc.faults
         ?transport
         ~trace:(Rdt_obs.Trace.observer (Rdt_check.Online.observe eng))
         (Rdt_workloads.Registry.find_exn sc.env)
         (Rdt_core.Registry.find_exn sc.protocol))
  in
  (r.Rdt_core.Runtime.pattern, Rdt_check.Online.history eng)

(* the first eight campaign scenarios that [keep] accepts, on envs whose
   crash runs always terminate *)
let run_scenarios keep =
  Rdt_test_helpers.Scenarios.first 8 (fun sc ->
      List.mem sc.Rdt_fuzz.Scenario.env [ "random"; "group"; "client-server" ] && keep sc)

let test_order_runs () =
  let scenarios =
    run_scenarios (fun sc -> sc.Rdt_fuzz.Scenario.crashes = [])
    @ run_scenarios (fun sc -> sc.Rdt_fuzz.Scenario.crashes <> [])
  in
  check "crash-free and crash runs" true
    (List.exists (fun sc -> sc.Rdt_fuzz.Scenario.crashes = []) scenarios
    && List.exists (fun sc -> sc.Rdt_fuzz.Scenario.crashes <> []) scenarios);
  List.iter
    (fun sc ->
      let pat, history = traced_run sc in
      check
        (Format.asprintf "%a" Rdt_fuzz.Scenario.pp sc)
        true
        (order_agrees pat (Rdt_test_helpers.Naive.history_gseqs history)))
    scenarios

let test_counts () =
  let fx = Rdt_test_helpers.Fixtures.figure1 () in
  let pat = fx.pattern in
  Alcotest.(check int) "messages" 7 (P.num_messages pat);
  Alcotest.(check int) "initial count" 3
    (P.fold_ckpts pat ~init:0 ~f:(fun acc c -> if c.T.kind = T.Initial then acc + 1 else acc));
  check "valid" true (Result.is_ok (P.validate pat))

let test_builder_many_messages () =
  (* append far past several doublings of the builder's message array
     (initial capacity 64): every handle must survive, num_messages must
     stay exact, and each message must carry its own src/dst back out *)
  let n_msgs = 1039 in
  let b = P.Builder.create ~n:4 in
  let handles =
    List.init n_msgs (fun k ->
        let src = k mod 4 in
        let dst = (k + 1 + (k mod 3)) mod 4 in
        let dst = if dst = src then (dst + 1) mod 4 else dst in
        (P.Builder.send b ~src ~dst, src, dst))
  in
  List.iter (fun (h, _, _) -> P.Builder.recv b h) handles;
  let pat = P.Builder.finish b in
  Alcotest.(check int) "num_messages exact" n_msgs (P.num_messages pat);
  check "valid" true (Result.is_ok (P.validate pat));
  List.iter
    (fun (h, src, dst) ->
      let m = P.message pat h in
      Alcotest.(check int) (Printf.sprintf "msg %d id" h) h m.T.id;
      Alcotest.(check int) (Printf.sprintf "msg %d src" h) src m.T.src;
      Alcotest.(check int) (Printf.sprintf "msg %d dst" h) dst m.T.dst)
    handles

(* ------------------------------------------------------------------ *)
(* Figure 1: R-graph                                                   *)
(* ------------------------------------------------------------------ *)

let test_fig1_rgraph_edges () =
  let fx = Rdt_test_helpers.Fixtures.figure1 () in
  let { Rdt_test_helpers.Fixtures.i; j; k; _ } = fx in
  let g = Rgraph.build fx.pattern in
  let node = Rgraph.node_of_ckpt g in
  let succ a = Rgraph.successors g (node a) in
  (* message edges of Figure 1.b *)
  check "m1: C(i,1)->C(j,1)" true (List.mem (node (j, 1)) (succ (i, 1)));
  check "m2: C(j,1)->C(i,2)" true (List.mem (node (i, 2)) (succ (j, 1)));
  check "m3: C(k,1)->C(j,1)" true (List.mem (node (j, 1)) (succ (k, 1)));
  check "m4: C(j,2)->C(k,2)" true (List.mem (node (k, 2)) (succ (j, 2)));
  check "m5: C(i,3)->C(j,2)" true (List.mem (node (j, 2)) (succ (i, 3)));
  check "m7: C(k,2)->C(j,3)" true (List.mem (node (j, 3)) (succ (k, 2)));
  (* program-order edges *)
  check "C(i,0)->C(i,1)" true (List.mem (node (i, 1)) (succ (i, 0)));
  (* no fabricated edge *)
  check "no C(k,1)->C(i,2) edge" false (List.mem (node (i, 2)) (succ (k, 1)))

let test_fig1_reachability () =
  let fx = Rdt_test_helpers.Fixtures.figure1 () in
  let { Rdt_test_helpers.Fixtures.i; j; k; _ } = fx in
  let g = Rgraph.build fx.pattern in
  check "C(k,1) ~> C(i,2) via m3,m2" true (Rgraph.reaches g (k, 1) (i, 2));
  check "C(i,3) ~> C(k,2)" true (Rgraph.reaches g (i, 3) (k, 2));
  check "C(k,1) ~> C(k,2)" true (Rgraph.reaches g (k, 1) (k, 2));
  check "self" true (Rgraph.reaches g (j, 2) (j, 2));
  check "no back edge C(j,3) ~> C(i,1)" false (Rgraph.reaches g (j, 3) (i, 1));
  Alcotest.(check int) "max reaching index from k to C(i,2)" 1
    (Rgraph.max_reaching_index g ~from_pid:k (i, 2));
  Alcotest.(check int) "no reaching index from j to C(j',..)... none from j to C(k,1)" (-1)
    (Rgraph.max_reaching_index g ~from_pid:j (k, 1))

let test_fig1_acyclic () =
  (* Figure 1 has no R-cycle *)
  let fx = Rdt_test_helpers.Fixtures.figure1 () in
  let g = Rgraph.build fx.pattern in
  List.iter (fun c -> check "acyclic" false (Rgraph.in_cycle g c)) (all_ckpts fx.pattern)

let test_crossing_cycle () =
  let pat = Rdt_test_helpers.Fixtures.two_crossing () in
  let g = Rgraph.build pat in
  check "cycle C(0,1)<->C(1,1)" true (Rgraph.in_cycle g (0, 1));
  check "cycle C(1,1)" true (Rgraph.in_cycle g (1, 1));
  check "mutual reach" true (Rgraph.reaches g (0, 1) (1, 1) && Rgraph.reaches g (1, 1) (0, 1));
  check "but the pair is still consistent" true (Consistency.consistent_pair pat (0, 1) (1, 1))

let contains_substring haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let test_dot_output () =
  let fx = Rdt_test_helpers.Fixtures.figure1 () in
  let g = Rgraph.build fx.pattern in
  let dot = Rgraph.to_dot g in
  check "digraph" true (String.length dot > 7 && String.sub dot 0 7 = "digraph");
  check "has node label" true (contains_substring dot "C(0,1)");
  check "has an edge" true (contains_substring dot "->")

let rgraph_matches_naive =
  QCheck.Test.make ~name:"rgraph reachability = naive DFS" ~count:60
    Rdt_test_helpers.Gen.small_pattern_arbitrary (fun pat ->
      let g = Rgraph.build pat in
      let cks = all_ckpts pat in
      List.for_all
        (fun a ->
          List.for_all (fun b -> Rgraph.reaches g a b = Rdt_test_helpers.Naive.reaches pat a b) cks)
        cks)

let rgraph_max_reaching_matches_naive =
  QCheck.Test.make ~name:"rgraph x* = naive largest reaching index" ~count:60
    Rdt_test_helpers.Gen.small_pattern_arbitrary (fun pat ->
      let g = Rgraph.build pat in
      let all_at_once = Rdt_test_helpers.Naive.max_reaching_indices pat in
      List.for_all
        (fun c ->
          let row = all_at_once c in
          List.for_all
            (fun i ->
              let x = Rgraph.max_reaching_index g ~from_pid:i c in
              x = Rdt_test_helpers.Naive.max_reaching_index pat ~from_pid:i c && x = row.(i))
            (List.init (P.n pat) Fun.id))
        (all_ckpts pat))

let rgraph_edges_match_naive =
  QCheck.Test.make ~name:"rgraph edges = definition" ~count:100
    Rdt_test_helpers.Gen.pattern_arbitrary (fun pat ->
      let g = Rgraph.build pat in
      let got = ref [] in
      for v = 0 to Rgraph.num_nodes g - 1 do
        List.iter (fun w -> got := (v, w) :: !got) (Rgraph.successors g v)
      done;
      let node = Rgraph.node_of_ckpt g in
      List.sort_uniq compare !got
      = List.sort compare
          (List.map (fun (a, b) -> (node a, node b)) (Rdt_test_helpers.Naive.rgraph_edges pat)))

(* The CSR graph against the list-built adjacency and the definition:
   successors node by node, edge count, and R-cycle membership (a
   checkpoint lies on a cycle iff a successor reaches it back). *)
let csr_agrees pat =
  let g = Rgraph.build pat in
  let lists = Rdt_test_helpers.Naive.rgraph_successors pat in
  let edges = Rdt_test_helpers.Naive.rgraph_edges pat in
  Rgraph.num_nodes g = Array.length lists
  && Rgraph.edge_count g = List.length edges
  && Array.for_all Fun.id (Array.mapi (fun v l -> Rgraph.successors g v = l) lists)
  && List.for_all
       (fun a ->
         Rgraph.in_cycle g a
         = List.exists (fun (u, w) -> u = a && Rdt_test_helpers.Naive.reaches pat w a) edges)
       (all_ckpts pat)

let test_csr_fixtures () =
  List.iter
    (fun (name, pat, _) ->
      check name true (csr_agrees pat);
      let g = Rgraph.build pat and cks = all_ckpts pat in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              check (name ^ " reaches") (Rdt_test_helpers.Naive.reaches pat a b)
                (Rgraph.reaches g a b))
            cks)
        cks)
    (Rdt_test_helpers.Fixtures.logged ());
  check "two crossing has a cycle" true
    (Rgraph.in_cycle (Rgraph.build (Rdt_test_helpers.Fixtures.two_crossing ())) (0, 1))

let rgraph_csr_matches_lists =
  QCheck.Test.make ~name:"CSR rgraph = list-built adjacency and naive cycles" ~count:100
    Rdt_test_helpers.Gen.pattern_arbitrary csr_agrees

(* ------------------------------------------------------------------ *)
(* Figure 1: TDV                                                       *)
(* ------------------------------------------------------------------ *)

let test_fig1_tdv_values () =
  let fx = Rdt_test_helpers.Fixtures.figure1 () in
  let { Rdt_test_helpers.Fixtures.i; j; k; _ } = fx in
  let tdv = Tdv.compute fx.pattern in
  Alcotest.(check (array int)) "TDV_{i,1}" [| 1; 0; 0 |] (Tdv.at tdv (i, 1));
  Alcotest.(check (array int)) "TDV_{j,1}" [| 1; 1; 1 |] (Tdv.at tdv (j, 1));
  Alcotest.(check (array int)) "TDV_{i,2}" [| 2; 1; 0 |] (Tdv.at tdv (i, 2));
  Alcotest.(check (array int)) "TDV_{k,1}" [| 0; 0; 1 |] (Tdv.at tdv (k, 1));
  (* C_{k,2} is reached causally by m4 (I_{j,2}) and transitively by m5's
     past: i up to interval 3 *)
  Alcotest.(check (array int)) "TDV_{k,2}" [| 3; 2; 2 |] (Tdv.at tdv (k, 2));
  Alcotest.(check (array int)) "initial zero" [| 0; 0; 0 |] (Tdv.at tdv (i, 0))

let test_fig1_not_rdt () =
  let fx = Rdt_test_helpers.Fixtures.figure1 () in
  let { Rdt_test_helpers.Fixtures.i; k; _ } = fx in
  let tdv = Tdv.compute fx.pattern in
  (* the hidden dependency of the paper: R-path C(k,1) ~> C(i,2) is not
     trackable *)
  check "hidden dependency" false (Tdv.trackable tdv (k, 1) (i, 2));
  check "chains agree" false (Chains.trackable fx.pattern (k, 1) (i, 2));
  (* …but C(i,3) ~> C(k,2) is, thanks to the causal sibling [m5; m6] *)
  check "tracked dependency" true (Tdv.trackable tdv (i, 3) (k, 2));
  check "chains agree (tracked)" true (Chains.trackable fx.pattern (i, 3) (k, 2))

let tdv_matches_chains =
  QCheck.Test.make ~name:"TDV trackability = causal chain search" ~count:80
    Rdt_test_helpers.Gen.pattern_arbitrary (fun pat ->
      let tdv = Tdv.compute pat in
      let cks = all_ckpts pat in
      List.for_all
        (fun a ->
          List.for_all (fun b -> Tdv.trackable tdv a b = Chains.trackable pat a b) cks)
        cks)

let tdv_matches_naive =
  QCheck.Test.make ~name:"TDV trackability = naive message-graph DFS" ~count:60
    Rdt_test_helpers.Gen.small_pattern_arbitrary (fun pat ->
      let tdv = Tdv.compute pat in
      let cks = all_ckpts pat in
      List.for_all
        (fun a ->
          List.for_all
            (fun b -> Tdv.trackable tdv a b = Rdt_test_helpers.Naive.trackable pat a b)
            cks)
        cks)

let tdv_entry_is_max_chain_origin =
  QCheck.Test.make ~name:"TDV entries are monotone along each process" ~count:100
    Rdt_test_helpers.Gen.pattern_arbitrary (fun pat ->
      let tdv = Tdv.compute pat in
      let ok = ref true in
      for i = 0 to P.n pat - 1 do
        for x = 0 to P.last_index pat i - 1 do
          let a = Tdv.at tdv (i, x) and b = Tdv.at tdv (i, x + 1) in
          Array.iteri (fun kk v -> if v > b.(kk) then ok := false) a
        done
      done;
      !ok)

(* The shared-copy replay against dense vectors copied at every send and
   checkpoint, at every checkpoint. *)
let tdv_agrees pat =
  let tdv = Tdv.compute pat and dense = Rdt_test_helpers.Naive.dense_tdvs pat in
  List.for_all (fun c -> Tdv.at tdv c = dense c) (all_ckpts pat)

let test_tdv_dense_fixtures () =
  List.iter (fun (name, pat, _) -> check name true (tdv_agrees pat))
    (Rdt_test_helpers.Fixtures.logged ());
  List.iter
    (fun sc -> check "fuzz run" true (tdv_agrees (fst (traced_run sc))))
    (run_scenarios (fun _ -> true))

let tdv_matches_dense =
  QCheck.Test.make ~name:"TDV shared copies = dense replay" ~count:200
    Rdt_test_helpers.Gen.pattern_arbitrary tdv_agrees

(* ------------------------------------------------------------------ *)
(* Figure 1: chains and Z-paths                                        *)
(* ------------------------------------------------------------------ *)

let test_fig1_zpaths () =
  let fx = Rdt_test_helpers.Fixtures.figure1 () in
  let { Rdt_test_helpers.Fixtures.i; j; k; _ } = fx in
  let pat = fx.pattern in
  (* [m3; m2] realises C(k,1) ~> C(i,2) as a Z-path but not causally *)
  let zr = Chains.zpath_from_interval pat (k, 1) in
  check "zpath to C(i,2)" true (zr.Chains.earliest.(i) <= 2);
  check "no causal chain from I_{k,1} to i" false
    ((Chains.causal_from_interval pat (k, 1)).Chains.earliest.(i) <= 2);
  (* [m5; m4] and the causal sibling [m5; m6] both realise C(i,3) ~> C(k,2) *)
  check "causal chain I_{i,3} to C(k,2)" true
    ((Chains.causal_from_interval pat (i, 3)).Chains.earliest.(k) <= 2);
  check "strictly trackable C(i,3)->C(k,2)" true (Chains.strictly_trackable pat (i, 3) (k, 2));
  (* the non-causal chain [m3 m2 m5 m4 m7] from C(k,1) ends at C(j,3) *)
  check "zpath C(k,1) to C(j,3)" true (zr.Chains.earliest.(j) <= 3)

let test_fig1_causal_precedence () =
  let fx = Rdt_test_helpers.Fixtures.figure1 () in
  let { Rdt_test_helpers.Fixtures.i; j; k; _ } = fx in
  let pat = fx.pattern in
  (* m1 is sent *before* C(i,1), so it is C(i,0) — not C(i,1) — that lies
     in C(j,1)'s causal past *)
  check "C(i,0) precedes C(j,1) (m1)" true (Chains.causally_precedes pat (i, 0) (j, 1));
  check "C(i,1) does not precede C(j,1)" false (Chains.causally_precedes pat (i, 1) (j, 1));
  check "C(k,1) does not precede C(i,2)" false (Chains.causally_precedes pat (k, 1) (i, 2));
  check "same process order" true (Chains.causally_precedes pat (j, 1) (j, 2));
  check "irreflexive" false (Chains.causally_precedes pat (j, 1) (j, 1))

let test_fig1_cm_paths () =
  let fx = Rdt_test_helpers.Fixtures.figure1 () in
  let { Rdt_test_helpers.Fixtures.i; j; k; _ } = fx in
  let pat = fx.pattern in
  let tdv = Tdv.compute pat in
  let undoubled = Chains.undoubled_cm_paths pat tdv in
  (* the CM-path [m3 ; m2] from C(k,1) to C(i,2) must be reported *)
  check "undoubled [m3;m2]" true
    (List.exists
       (fun (p : Chains.cm_path) ->
         p.origin = (k, 1) && p.last_msg = fx.m2 && p.target = (i, 2))
       undoubled);
  (* the CM-path [m5 ; m4] is doubled by [m5; m6]: not reported *)
  check "[m5;m4] is doubled" false
    (List.exists (fun (p : Chains.cm_path) -> p.last_msg = fx.m4 && p.origin = (i, 3)) undoubled);
  (* but it IS a CM-path *)
  check "[m5;m4] is a CM-path" true
    (List.exists
       (fun (p : Chains.cm_path) -> p.last_msg = fx.m4 && p.origin = (i, 3))
       (Chains.cm_paths pat));
  ignore j

let zigzag_matches_naive =
  QCheck.Test.make ~name:"zigzag relaxation = naive DFS" ~count:50
    Rdt_test_helpers.Gen.small_pattern_arbitrary (fun pat ->
      let cks = all_ckpts pat in
      List.for_all
        (fun a ->
          List.for_all
            (fun b -> Chains.zigzag pat a b = Rdt_test_helpers.Naive.zigzag pat a b)
            cks)
        cks)

let causal_implies_zigzag =
  QCheck.Test.make ~name:"causal precedence implies zigzag" ~count:80
    Rdt_test_helpers.Gen.pattern_arbitrary (fun pat ->
      let cks = all_ckpts pat in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              let ap, bp = (fst a, fst b) in
              if ap = bp then true
              else not (Chains.causally_precedes pat a b) || Chains.zigzag pat a b)
            cks)
        cks)

(* The relaxation against a breadth-first search over the explicit
   message graph: [earliest] and [reached_msgs] out of every interval,
   for causal chains and for Z-paths, and causal precedence between every
   pair of checkpoints. *)
let relaxation_agrees pat =
  let cks = all_ckpts pat in
  let same (r : Chains.reach) (earliest, reached) =
    r.Chains.earliest = earliest && r.Chains.reached_msgs = reached
  in
  List.for_all
    (fun c ->
      same (Chains.causal_from_interval pat c)
        (Rdt_test_helpers.Naive.interval_reach ~zigzag:false pat c)
      && same (Chains.zpath_from_interval pat c)
           (Rdt_test_helpers.Naive.interval_reach ~zigzag:true pat c))
    cks
  && List.for_all
       (fun a ->
         List.for_all
           (fun b ->
             Chains.causally_precedes pat a b = Rdt_test_helpers.Naive.causally_precedes pat a b)
           cks)
       cks

let test_relaxation_fixtures () =
  List.iter
    (fun (name, pat, _) -> check name true (relaxation_agrees pat))
    (Rdt_test_helpers.Fixtures.logged ())

let relaxation_matches_naive =
  QCheck.Test.make ~name:"relaxation = naive message BFS" ~count:200
    Rdt_test_helpers.Gen.pattern_arbitrary relaxation_agrees

(* ------------------------------------------------------------------ *)
(* Consistency                                                         *)
(* ------------------------------------------------------------------ *)

let test_fig1_consistency () =
  let fx = Rdt_test_helpers.Fixtures.figure1 () in
  let { Rdt_test_helpers.Fixtures.i; j; k; _ } = fx in
  let pat = fx.pattern in
  check "(C_k1, C_j1) consistent" true (Consistency.consistent_pair pat (k, 1) (j, 1));
  check "(C_i2, C_j2) inconsistent" false (Consistency.consistent_pair pat (i, 2) (j, 2));
  (match Consistency.orphan pat ~sender:(i, 2) ~receiver:(j, 2) with
  | Some id -> Alcotest.(check int) "orphan is m5" fx.m5 id
  | None -> Alcotest.fail "expected an orphan");
  let v111 = [| 1; 1; 1 |] and v221 = [| 2; 2; 1 |] in
  check "{C_i1,C_j1,C_k1} consistent" true (Consistency.consistent_global pat v111);
  check "{C_i2,C_j2,C_k1} inconsistent" false (Consistency.consistent_global pat v221)

let test_zcycle_useless () =
  let pat = Rdt_test_helpers.Fixtures.zcycle_fixture () in
  check "zcycle on C(1,1)" true (Chains.zcycle pat (1, 1));
  check "C(1,1) useless" true (Consistency.useless pat (1, 1));
  check "C(0,1) not on a zcycle" false (Chains.zcycle pat (0, 1));
  check "C(0,1) usable" false (Consistency.useless pat (0, 1))

let test_ping_pong_consistent () =
  let pat = Rdt_test_helpers.Fixtures.causal_ping_pong () in
  (* every aligned pair of checkpoints is a consistent global checkpoint *)
  for x = 0 to P.last_index pat 0 do
    check "aligned pair consistent" true
      (Consistency.consistent_global pat [| x; min x (P.last_index pat 1) |])
  done

let min_gcp_matches_exhaustive =
  QCheck.Test.make ~name:"min consistent GCP = exhaustive search" ~count:40
    Rdt_test_helpers.Gen.small_pattern_arbitrary (fun pat ->
      List.for_all
        (fun c ->
          Consistency.min_consistent_containing pat [ c ] = Rdt_test_helpers.Naive.min_gcp pat c)
        (all_ckpts pat))

let max_gcp_matches_exhaustive =
  QCheck.Test.make ~name:"max consistent GCP = exhaustive search" ~count:40
    Rdt_test_helpers.Gen.small_pattern_arbitrary (fun pat ->
      List.for_all
        (fun c ->
          Consistency.max_consistent_containing pat [ c ] = Rdt_test_helpers.Naive.max_gcp pat c)
        (all_ckpts pat))

let netzer_xu =
  QCheck.Test.make ~name:"Netzer-Xu: extensible iff no zigzag between members" ~count:50
    Rdt_test_helpers.Gen.small_pattern_arbitrary (fun pat ->
      (* test singletons and all pairs on distinct processes *)
      let cks = all_ckpts pat in
      let sets =
        List.map (fun c -> [ c ]) cks
        @ List.concat_map
            (fun a -> List.filter_map (fun b -> if fst a < fst b then Some [ a; b ] else None) cks)
            cks
      in
      List.for_all
        (fun set ->
          let ext = Consistency.extensible pat set in
          let no_zigzag =
            List.for_all
              (fun a -> List.for_all (fun b -> not (Chains.zigzag pat a b)) set)
              set
          in
          ext = no_zigzag)
        sets)

let useless_iff_zcycle =
  QCheck.Test.make ~name:"useless iff on a Z-cycle" ~count:60
    Rdt_test_helpers.Gen.small_pattern_arbitrary (fun pat ->
      List.for_all
        (fun c -> Consistency.useless pat c = Chains.zcycle pat c)
        (all_ckpts pat))

let min_gcp_set_consistency =
  QCheck.Test.make ~name:"min/max of sets contain pins and are consistent" ~count:60
    Rdt_test_helpers.Gen.pattern_arbitrary (fun pat ->
      let cks = all_ckpts pat in
      let pairs =
        List.concat_map
          (fun a -> List.filter_map (fun b -> if fst a < fst b then Some [ a; b ] else None) cks)
          cks
      in
      List.for_all
        (fun set ->
          match
            (Consistency.min_consistent_containing pat set, Consistency.max_consistent_containing pat set)
          with
          | None, None -> true
          | Some mn, Some mx ->
              Consistency.consistent_global pat mn
              && Consistency.consistent_global pat mx
              && List.for_all (fun (ii, x) -> mn.(ii) = x && mx.(ii) = x) set
              && Array.for_all2 ( >= ) mx mn
          | _ -> false)
        pairs)

let test_pairwise_insufficient () =
  let pat = Rdt_test_helpers.Fixtures.pairwise_insufficient () in
  let tdv = Tdv.compute pat in
  check "every pair is doubled" true (Chains.pairwise_doubled pat tdv);
  check "yet RDT fails" false (Rdt_core.Checker.run pat).Rdt_core.Checker.rdt;
  (* the exact CM-path characterization does catch it *)
  check "CM-paths catch it" true (Chains.undoubled_cm_paths pat tdv <> [])

let rdt_implies_pairwise =
  QCheck.Test.make ~name:"RDT implies pairwise doubling (sound direction)" ~count:150
    Rdt_test_helpers.Gen.pattern_arbitrary (fun pat ->
      let tdv = Tdv.compute pat in
      (not (Rdt_core.Checker.run pat).Rdt_core.Checker.rdt)
      || Chains.pairwise_doubled pat tdv)

(* ------------------------------------------------------------------ *)
(* Render                                                              *)
(* ------------------------------------------------------------------ *)

let test_render_figure1 () =
  let fx = Rdt_test_helpers.Fixtures.figure1 () in
  match Rdt_pattern.Render.ascii fx.pattern with
  | Error e -> Alcotest.fail e
  | Ok s ->
      check "has P0 row" true (contains_substring s "P0");
      check "has P2 row" true (contains_substring s "P2");
      check "marks checkpoint 3" true (contains_substring s "C3");
      check "marks send of m5" true (contains_substring s ("s" ^ string_of_int fx.m5));
      check "legend" true (contains_substring s "messages:");
      (* one grid row per process + legend lines *)
      let lines = String.split_on_char '\n' (String.trim s) in
      Alcotest.(check int) "rows" (3 + 1 + P.num_messages fx.pattern) (List.length lines)

let test_render_too_large () =
  let pat = Rdt_test_helpers.Gen.random_pattern ~n:4 ~steps:500 ~seed:3 () in
  check "refused" true (Result.is_error (Rdt_pattern.Render.ascii pat))

(* ------------------------------------------------------------------ *)
(* Surviving history                                                  *)
(* ------------------------------------------------------------------ *)

let test_history_rollback () =
  let h = History.create ~n:2 in
  History.send h ~seq:0 ~msg:5 ~src:0 ~dst:1;
  History.checkpoint h ~seq:1 ~pid:0 ~index:1;
  History.internal h ~seq:2 ~pid:0;
  History.send h ~seq:3 ~msg:6 ~src:0 ~dst:1;
  let seqs l =
    List.map
      (function
        | History.Send { seq; _ } | Recv { seq; _ } | Internal { seq } | Ckpt { seq; _ } -> seq)
      l
  in
  Alcotest.(check (list int)) "popped above C(0,1), oldest first" [ 2; 3 ]
    (seqs (History.rollback h ~pid:0 ~to_index:1));
  Alcotest.(check (list int)) "nothing above the line" []
    (seqs (History.rollback h ~pid:0 ~to_index:1));
  Alcotest.(check (list int)) "down to the implicit C(0,0)" [ 0; 1 ]
    (seqs (History.rollback h ~pid:0 ~to_index:0));
  check "missing checkpoint" true
    (match History.rollback h ~pid:1 ~to_index:1 with
    | _ -> false
    | exception History.Inconsistent e -> e = "rollback of pid 1 to missing checkpoint 1")

(* The pattern keeps survivors in seq order, drops abandoned sends and
   takes kind, TDV and time from the caller. *)
let test_history_to_pattern () =
  let h = History.create ~n:2 in
  History.checkpoint h ~seq:0 ~pid:1 ~index:0;
  History.send h ~seq:1 ~msg:9 ~src:0 ~dst:1;
  History.send h ~seq:2 ~msg:4 ~src:1 ~dst:0;
  History.recv h ~seq:3 ~msg:9 ~dst:1;
  History.undeliverable h ~msg:4;
  History.checkpoint h ~seq:4 ~pid:1 ~index:1;
  let pat = History.to_pattern ~checkpoint:(fun seq -> (T.Forced, Some [| 0; 1 |], 10 * seq)) h in
  let expected =
    let b = P.Builder.create ~n:2 in
    P.Builder.recv b (P.Builder.send b ~src:0 ~dst:1);
    ignore (P.Builder.checkpoint ~kind:T.Forced ~tdv:[| 0; 1 |] ~time:40 b 1);
    P.Builder.finish b
  in
  check "surviving pattern" true (P.equal pat expected);
  ignore (History.rollback h ~pid:0 ~to_index:0);
  check "delivery of a rolled-back send" true
    (match History.to_pattern ~checkpoint:(fun _ -> (T.Basic, None, 0)) h with
    | _ -> false
    | exception History.Inconsistent e -> e = "surviving delivery of rolled-back send 9")

(* A process that records nothing costs no log: creating a history at
   n = 10^4 allocates a few words per process, not a buffer each. *)
let test_history_create_small () =
  let n = 10_000 in
  let before = Gc.allocated_bytes () in
  let h = History.create ~n in
  let words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) in
  ignore (Sys.opaque_identity h);
  if words > 4. *. float_of_int n then
    Alcotest.failf "History.create ~n:%d allocated %.0f words" n words

(* The packed history against a plain model of what it stores: per
   process a list of entries, newest first, and a sort of their union by
   seq for the replay order.  Random pushes of every kind, resends,
   abandoned messages and rollbacks (to index 0, to a surviving
   checkpoint, to a missing one); after every step the two must agree on
   [stacks], the [iter] order, [rollback]'s result, the packed log and
   [to_pattern], errors included. *)
module History_model = struct
  type t = {
    n : int;
    stacks : History.entry list array; (* newest first *)
    rollbacks : int array;
    routes : (int, int) Hashtbl.t; (* msg -> latest dst *)
    undeliv : (int, unit) Hashtbl.t;
  }

  let create ~n =
    {
      n;
      stacks = Array.make n [];
      rollbacks = Array.make n 0;
      routes = Hashtbl.create 8;
      undeliv = Hashtbl.create 8;
    }

  let seq = function
    | History.Send { seq; _ } | Recv { seq; _ } | Internal { seq } | Ckpt { seq; _ } -> seq

  let iter m f =
    Array.to_list m.stacks
    |> List.mapi (fun pid stack -> List.rev_map (fun e -> (pid, e)) stack)
    |> List.concat
    |> List.stable_sort (fun (_, a) (_, b) -> Int.compare (seq a) (seq b))
    |> List.iter (fun (pid, e) -> f pid e)

  let rollback m ~pid ~to_index =
    let rec pop popped = function
      | History.Ckpt { index; _ } :: _ as kept when index = to_index -> (kept, popped)
      | [] when to_index = 0 -> ([], popped)
      | [] ->
          raise
            (History.Inconsistent
               (Printf.sprintf "rollback of pid %d to missing checkpoint %d" pid to_index))
      | e :: rest -> pop (e :: popped) rest
    in
    let kept, popped = pop [] m.stacks.(pid) in
    if popped <> [] then m.rollbacks.(pid) <- m.rollbacks.(pid) + 1;
    m.stacks.(pid) <- kept;
    popped

  let to_pattern ~checkpoint m =
    let b = P.Builder.create ~n:m.n in
    let handles = Hashtbl.create 8 in
    iter m (fun pid e ->
        match e with
        | History.Send { msg; _ } ->
            if not (Hashtbl.mem m.undeliv msg) then
              Hashtbl.replace handles msg
                (P.Builder.send b ~src:pid ~dst:(Hashtbl.find m.routes msg))
        | Recv { msg; _ } -> (
            match Hashtbl.find_opt handles msg with
            | Some handle -> P.Builder.recv b handle
            | None ->
                raise
                  (History.Inconsistent
                     (Printf.sprintf "surviving delivery of rolled-back send %d" msg)))
        | Internal _ -> P.Builder.internal b pid
        | Ckpt { index = 0; _ } -> ()
        | Ckpt { seq; _ } ->
            let kind, tdv, time = checkpoint seq in
            ignore (P.Builder.checkpoint ~kind ?tdv ~time b pid));
    P.Builder.finish b
end

let history_matches_model =
  let module M = History_model in
  QCheck.Test.make ~name:"packed logs = list model" ~count:300
    QCheck.(
      pair (int_range 2 4)
        (list_of_size Gen.(int_range 0 80) (quad small_nat small_nat small_nat small_nat)))
    (fun (n, ops) ->
      let h = History.create ~n and m = M.create ~n in
      let sent = ref [] and next_msg = ref 0 in
      let outcome f =
        match f () with
        | v -> Ok v
        | exception (History.Inconsistent e | Invalid_argument e) -> Error e
      in
      let checkpoint seq = (T.Basic, None, seq) in
      let agree () =
        let log pid =
          let l = ref [] in
          History.iter_log h pid ~from:0 (fun tag seq x -> l := (tag, seq, x) :: !l);
          List.rev !l
        in
        let as_log = function
          | History.Send { seq; msg } -> (0, seq, msg)
          | Recv { seq; msg } -> (1, seq, msg)
          | Internal { seq } -> (2, seq, 0)
          | Ckpt { seq; index } -> (3, seq, index)
        in
        let order iter x =
          let l = ref [] in
          iter x (fun pid e -> l := (pid, e) :: !l);
          List.rev !l
        in
        History.stacks h = Array.map List.rev m.M.stacks
        && List.for_all
             (fun pid ->
               History.length h pid = List.length m.M.stacks.(pid)
               && History.rollbacks h pid = m.M.rollbacks.(pid)
               && log pid = List.rev_map as_log m.M.stacks.(pid))
             (List.init n Fun.id)
        && order History.iter h = order M.iter m
        &&
        match
          ( outcome (fun () -> History.to_pattern ~checkpoint h),
            outcome (fun () -> M.to_pattern ~checkpoint m) )
        with
        | Ok a, Ok b -> P.equal a b
        | Error a, Error b -> a = b
        | _ -> false
      in
      let pick l k = List.nth l (k mod List.length l) in
      List.for_all
        (fun (seq, (op, a, b, c)) ->
          let pid = a mod n in
          let push e =
            m.M.stacks.(pid) <- e :: m.M.stacks.(pid);
            true
          in
          let ok =
            match op mod 6 with
            | 0 ->
                let msg = if b mod 5 = 0 && !sent <> [] then pick !sent c else !next_msg in
                if msg = !next_msg then incr next_msg;
                let dst = (pid + 1 + (c mod (n - 1))) mod n in
                History.send h ~seq ~msg ~src:pid ~dst;
                Hashtbl.replace m.M.routes msg dst;
                sent := msg :: !sent;
                push (History.Send { seq; msg })
            | 1 when !sent <> [] ->
                let msg = pick !sent b in
                let dst = Hashtbl.find m.M.routes msg in
                (match History.recv h ~seq ~msg ~dst with
                | () ->
                    not (Hashtbl.mem m.M.undeliv msg)
                    && (m.M.stacks.(dst) <- History.Recv { seq; msg } :: m.M.stacks.(dst);
                        true)
                | exception History.Inconsistent e ->
                    Hashtbl.mem m.M.undeliv msg
                    && e = Printf.sprintf "deliver of undeliverable message %d" msg)
            | 2 ->
                History.internal h ~seq ~pid;
                push (History.Internal { seq })
            | 3 ->
                let index =
                  1
                  + List.fold_left
                      (fun acc -> function History.Ckpt { index; _ } -> max acc index | _ -> acc)
                      0 m.M.stacks.(pid)
                in
                History.checkpoint h ~seq ~pid ~index;
                push (History.Ckpt { seq; index })
            | 4 ->
                let indices =
                  0
                  :: List.filter_map
                       (function History.Ckpt { index; _ } -> Some index | _ -> None)
                       m.M.stacks.(pid)
                in
                let to_index = if b mod 7 = 0 then 99 else pick indices c in
                outcome (fun () -> History.rollback h ~pid ~to_index)
                = outcome (fun () -> M.rollback m ~pid ~to_index)
            | 5 when !sent <> [] ->
                let msg = pick !sent b in
                History.undeliverable h ~msg;
                Hashtbl.replace m.M.undeliv msg ();
                true
            | _ -> true
          in
          ok && agree ())
        (List.mapi (fun seq op -> (seq, op)) ops))

let () =
  Alcotest.run "rdt_pattern"
    [
      ( "builder",
        [
          Alcotest.test_case "initial checkpoints" `Quick test_builder_initial_checkpoints;
          Alcotest.test_case "rejects bad usage" `Quick test_builder_rejects_bad_usage;
          Alcotest.test_case "undelivered rejected" `Quick test_builder_undelivered_rejected;
          Alcotest.test_case "final checkpoints" `Quick test_builder_final_checkpoints;
          Alcotest.test_case "intervals" `Quick test_intervals;
          Alcotest.test_case "gseq order" `Quick test_gseq_order;
          Alcotest.test_case "in order = gseq sort (fixtures)" `Quick test_order_fixtures;
          Alcotest.test_case "in order = gseq sort (fuzz and crash runs)" `Quick test_order_runs;
          qt order_matches_sort;
          Alcotest.test_case "counts & validate" `Quick test_counts;
          Alcotest.test_case "growth past doublings" `Quick test_builder_many_messages;
        ] );
      ( "history",
        [
          Alcotest.test_case "rollback" `Quick test_history_rollback;
          Alcotest.test_case "to_pattern" `Quick test_history_to_pattern;
          qt history_matches_model;
          Alcotest.test_case "create at n=10^4 allocates no logs" `Quick test_history_create_small;
        ] );
      ( "rgraph",
        [
          Alcotest.test_case "figure 1 edges" `Quick test_fig1_rgraph_edges;
          Alcotest.test_case "figure 1 reachability" `Quick test_fig1_reachability;
          Alcotest.test_case "figure 1 acyclic" `Quick test_fig1_acyclic;
          Alcotest.test_case "crossing messages cycle" `Quick test_crossing_cycle;
          Alcotest.test_case "dot output" `Quick test_dot_output;
          qt rgraph_matches_naive;
          qt rgraph_max_reaching_matches_naive;
          qt rgraph_edges_match_naive;
          Alcotest.test_case "CSR = lists (fixtures)" `Quick test_csr_fixtures;
          qt rgraph_csr_matches_lists;
        ] );
      ( "tdv",
        [
          Alcotest.test_case "figure 1 values" `Quick test_fig1_tdv_values;
          Alcotest.test_case "figure 1 hidden dependency" `Quick test_fig1_not_rdt;
          qt tdv_matches_chains;
          qt tdv_matches_naive;
          qt tdv_entry_is_max_chain_origin;
          Alcotest.test_case "shared copies = dense (fixtures, runs)" `Quick test_tdv_dense_fixtures;
          qt tdv_matches_dense;
        ] );
      ( "chains",
        [
          Alcotest.test_case "figure 1 z-paths" `Quick test_fig1_zpaths;
          Alcotest.test_case "figure 1 causal precedence" `Quick test_fig1_causal_precedence;
          Alcotest.test_case "figure 1 CM-paths" `Quick test_fig1_cm_paths;
          Alcotest.test_case "pairwise doubling insufficient" `Quick test_pairwise_insufficient;
          qt rdt_implies_pairwise;
          qt zigzag_matches_naive;
          qt causal_implies_zigzag;
          Alcotest.test_case "relaxation = naive BFS (fixtures)" `Quick test_relaxation_fixtures;
          qt relaxation_matches_naive;
        ] );
      ( "render",
        [
          Alcotest.test_case "figure 1" `Quick test_render_figure1;
          Alcotest.test_case "too large" `Quick test_render_too_large;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "figure 1 pairs/global" `Quick test_fig1_consistency;
          Alcotest.test_case "z-cycle useless" `Quick test_zcycle_useless;
          Alcotest.test_case "ping-pong consistent" `Quick test_ping_pong_consistent;
          qt min_gcp_matches_exhaustive;
          qt max_gcp_matches_exhaustive;
          qt netzer_xu;
          qt useless_iff_zcycle;
          qt min_gcp_set_consistency;
        ] );
    ]
