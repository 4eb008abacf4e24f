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
module Bitset = Rdt_pattern.Bitset
module History = Rdt_pattern.History

let check = Alcotest.(check bool)
let qt = QCheck_alcotest.to_alcotest

let all_ckpts pat =
  P.fold_ckpts pat ~init:[] ~f:(fun acc c -> (c.T.owner, c.T.index) :: acc)

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)
(* ------------------------------------------------------------------ *)

let bitset_members s =
  let acc = ref [] in
  Bitset.iter (fun i -> acc := i :: !acc) s;
  List.rev !acc

let test_bitset_basic () =
  let s = Bitset.create 130 in
  check "empty" false (Bitset.mem s 0);
  Bitset.add s 0;
  Bitset.add s 64;
  Bitset.add s 129;
  check "mem 0" true (Bitset.mem s 0);
  check "mem 64" true (Bitset.mem s 64);
  check "mem 129" true (Bitset.mem s 129);
  check "not mem 1" false (Bitset.mem s 1);
  Alcotest.(check (list int)) "members" [ 0; 64; 129 ] (bitset_members s);
  Alcotest.check_raises "out of bounds" (Invalid_argument "Bitset: index out of bounds")
    (fun () -> Bitset.add s 130)

let test_bitset_union () =
  let a = Bitset.create 100 and b = Bitset.create 100 in
  Bitset.add a 1;
  Bitset.add b 70;
  check "changed" true (Bitset.union_into a b);
  check "has 70" true (Bitset.mem a 70);
  check "no change" false (Bitset.union_into a b);
  check "source untouched" false (Bitset.mem b 1)

let bitset_model =
  QCheck.Test.make ~name:"bitset agrees with a list model" ~count:200
    QCheck.(list (int_bound 199))
    (fun xs ->
      let s = Bitset.create 200 in
      List.iter (Bitset.add s) xs;
      let model = List.sort_uniq compare xs in
      bitset_members s = model)

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
  let pat = P.Builder.finish ~final_checkpoints:true b in
  check "final on 0" true ((P.checkpoints pat 0).(1).T.kind = T.Final);
  check "final on 1" true ((P.checkpoints pat 1).(1).T.kind = T.Final);
  (* a process whose last event is already a checkpoint gets no final *)
  let b2 = P.Builder.create ~n:2 in
  let m2 = P.Builder.send b2 ~src:0 ~dst:1 in
  P.Builder.recv b2 m2;
  ignore (P.Builder.checkpoint b2 0);
  ignore (P.Builder.checkpoint b2 1);
  let pat2 = P.Builder.finish ~final_checkpoints:true b2 in
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

let test_gseq_order () =
  let fx = Rdt_test_helpers.Fixtures.figure1 () in
  let pat = fx.pattern in
  let order = P.events_in_gseq_order pat in
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
  let succ a = List.map (Rgraph.ckpt_of_node g) (Rgraph.successors g (Rgraph.node_of_ckpt g a)) in
  (* message edges of Figure 1.b *)
  check "m1: C(i,1)->C(j,1)" true (List.mem (j, 1) (succ (i, 1)));
  check "m2: C(j,1)->C(i,2)" true (List.mem (i, 2) (succ (j, 1)));
  check "m3: C(k,1)->C(j,1)" true (List.mem (j, 1) (succ (k, 1)));
  check "m4: C(j,2)->C(k,2)" true (List.mem (k, 2) (succ (j, 2)));
  check "m5: C(i,3)->C(j,2)" true (List.mem (j, 2) (succ (i, 3)));
  check "m7: C(k,2)->C(j,3)" true (List.mem (j, 3) (succ (k, 2)));
  (* program-order edges *)
  check "C(i,0)->C(i,1)" true (List.mem (i, 1) (succ (i, 0)));
  (* no fabricated edge *)
  check "no C(k,1)->C(i,2) edge" false (List.mem (i, 2) (succ (k, 1)))

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
          let set = Rgraph.reachable_set g a in
          List.for_all
            (fun b ->
              let naive = Rdt_test_helpers.Naive.reaches pat a b in
              Rgraph.reaches g a b = naive && Bitset.mem set (Rgraph.node_of_ckpt g b) = naive)
            cks)
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
        List.iter
          (fun w -> got := (Rgraph.ckpt_of_node g v, Rgraph.ckpt_of_node g w) :: !got)
          (Rgraph.successors g v)
      done;
      List.sort_uniq compare !got = Rdt_test_helpers.Naive.rgraph_edges pat)

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
    P.Builder.finish ~final_checkpoints:true b
  in
  check "surviving pattern" true (P.equal pat expected);
  ignore (History.rollback h ~pid:0 ~to_index:0);
  check "delivery of a rolled-back send" true
    (match History.to_pattern ~checkpoint:(fun _ -> (T.Basic, None, 0)) h with
    | _ -> false
    | exception History.Inconsistent e -> e = "surviving delivery of rolled-back send 9")

let () =
  Alcotest.run "rdt_pattern"
    [
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "union/copy" `Quick test_bitset_union;
          qt bitset_model;
        ] );
      ( "builder",
        [
          Alcotest.test_case "initial checkpoints" `Quick test_builder_initial_checkpoints;
          Alcotest.test_case "rejects bad usage" `Quick test_builder_rejects_bad_usage;
          Alcotest.test_case "undelivered rejected" `Quick test_builder_undelivered_rejected;
          Alcotest.test_case "final checkpoints" `Quick test_builder_final_checkpoints;
          Alcotest.test_case "intervals" `Quick test_intervals;
          Alcotest.test_case "gseq order" `Quick test_gseq_order;
          Alcotest.test_case "counts & validate" `Quick test_counts;
          Alcotest.test_case "growth past doublings" `Quick test_builder_many_messages;
        ] );
      ( "history",
        [
          Alcotest.test_case "rollback" `Quick test_history_rollback;
          Alcotest.test_case "to_pattern" `Quick test_history_to_pattern;
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
        ] );
      ( "tdv",
        [
          Alcotest.test_case "figure 1 values" `Quick test_fig1_tdv_values;
          Alcotest.test_case "figure 1 hidden dependency" `Quick test_fig1_not_rdt;
          qt tdv_matches_chains;
          qt tdv_matches_naive;
          qt tdv_entry_is_max_chain_origin;
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
