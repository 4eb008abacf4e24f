(* Tests for rdt_core: control payloads, predicates, each protocol's state
   machine (driven by hand through the paper's scenarios), the simulation
   runtime, the three RDT checkers, and the minimum-consistent-global-
   checkpoint corollary — across every (environment, protocol) pair. *)

module Control = Rdt_core.Control
module Predicates = Rdt_core.Predicates
module Protocol = Rdt_core.Protocol
module Registry = Rdt_core.Registry
module Runtime = Rdt_core.Runtime
module Checker = Rdt_core.Checker
module Min_gcp = Rdt_core.Min_gcp
module Metrics = Rdt_core.Metrics
module P = Rdt_pattern.Pattern

let check = Alcotest.(check bool)
let qt = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Predicates                                                          *)
(* ------------------------------------------------------------------ *)

(* C_FDI is exactly the new-dependency test *)
let test_predicates_new_dep () =
  check "no new dep" false (Predicates.c_fdi ~tdv:[| 2; 3 |] ~m_tdv:[| 2; 3 |]);
  check "new dep" true (Predicates.c_fdi ~tdv:[| 2; 3 |] ~m_tdv:[| 2; 4 |])

(* rows are packed bit words: with n = 3, one word per row and bit j
   for P_j, so [| 0b100 |] is "sent to P2" *)
let test_predicates_c1 () =
  let tdv = [| 1; 0; 0 |] and m_tdv = [| 1; 1; 0 |] in
  let m_causal = Array.make 3 0 in
  (* no send yet: C1 cannot fire *)
  check "no sends" false (Predicates.c1 ~sent_to:[| 0 |] ~tdv ~m_tdv ~m_causal);
  (* sent to P2, new dep on P1, sender knows no sibling: fire *)
  check "fires" true (Predicates.c1 ~sent_to:[| 0b100 |] ~tdv ~m_tdv ~m_causal);
  (* sender knows the causal sibling C_{1,?} ~> C_{2,?}: no fire *)
  m_causal.(1) <- 0b100;
  check "sibling known" false (Predicates.c1 ~sent_to:[| 0b100 |] ~tdv ~m_tdv ~m_causal);
  (* ... but not one towards P0, also sent to *)
  check "other destination" true (Predicates.c1 ~sent_to:[| 0b101 |] ~tdv ~m_tdv ~m_causal)

(* the row-word boundary: P_63 is bit 0 of a row's second word *)
let test_predicates_c1_wide () =
  let n = 70 in
  let w = Rdt_core.Control.words ~n in
  let tdv = Array.make n 0 in
  let m_tdv = Array.init n (fun k -> if k = 64 then 1 else 0) in
  let m_causal = Array.make (n * w) 0 in
  let sent_to = Array.make w 0 in
  sent_to.(1) <- 1;
  check "two words per row" true (w = 2);
  check "fires across the boundary" true (Predicates.c1 ~sent_to ~tdv ~m_tdv ~m_causal);
  m_causal.((64 * w) + 1) <- 1;
  check "sibling in the second word" false (Predicates.c1 ~sent_to ~tdv ~m_tdv ~m_causal)

let test_predicates_c2 () =
  check "same interval, non simple" true
    (Predicates.c2 ~pid:0 ~tdv:[| 3; 0 |] ~m_tdv:[| 3; 1 |] ~m_simple:[| 0b10 |]);
  check "same interval, simple" false
    (Predicates.c2 ~pid:0 ~tdv:[| 3; 0 |] ~m_tdv:[| 3; 1 |] ~m_simple:[| 0b11 |]);
  check "older interval" false
    (Predicates.c2 ~pid:0 ~tdv:[| 3; 0 |] ~m_tdv:[| 2; 1 |] ~m_simple:[| 0b10 |])

let test_predicates_c2' () =
  check "fires" true (Predicates.c2' ~pid:0 ~tdv:[| 3; 0 |] ~m_tdv:[| 3; 1 |]);
  check "no new dep" false (Predicates.c2' ~pid:0 ~tdv:[| 3; 1 |] ~m_tdv:[| 3; 1 |])

let test_predicates_fdas_fdi () =
  check "fdas needs send" false
    (Predicates.c_fdas ~after_first_send:false ~tdv:[| 0; 0 |] ~m_tdv:[| 0; 1 |]);
  check "fdas fires" true
    (Predicates.c_fdas ~after_first_send:true ~tdv:[| 0; 0 |] ~m_tdv:[| 0; 1 |]);
  check "fdi fires without send" true (Predicates.c_fdi ~tdv:[| 0; 0 |] ~m_tdv:[| 0; 1 |])

(* ------------------------------------------------------------------ *)
(* Protocol state machines, driven by hand                             *)
(* ------------------------------------------------------------------ *)

(* The Figure 4 / C2 scenario: a causal chain leaves P0's current interval
   and returns after crossing a checkpoint at P1 — P0 must break it. *)
let test_bhmr_c2_scenario () =
  let module B = (val Rdt_core.Bhmr.full) in
  let p0 = B.create ~n:2 ~pid:0 and p1 = B.create ~n:2 ~pid:1 in
  B.on_checkpoint p0;
  B.on_checkpoint p1;
  (* P0 sends m_a to P1 *)
  let ma = B.make_payload p0 ~dst:1 in
  check "P1 not forced by m_a" false (B.must_force p1 ~src:0 ma);
  B.absorb p1 ~src:0 ma;
  (* P1 takes a basic checkpoint: the returning chain is now non-simple *)
  B.on_checkpoint p1;
  let mb = B.make_payload p1 ~dst:0 in
  check "P0 forced (C2)" true (B.must_force p0 ~src:1 mb)

(* Same exchange without the checkpoint at P1: the chain stays simple and
   P0 must NOT be forced. *)
let test_bhmr_c2_negative () =
  let module B = (val Rdt_core.Bhmr.full) in
  let p0 = B.create ~n:2 ~pid:0 and p1 = B.create ~n:2 ~pid:1 in
  B.on_checkpoint p0;
  B.on_checkpoint p1;
  let ma = B.make_payload p0 ~dst:1 in
  B.absorb p1 ~src:0 ma;
  let mb = B.make_payload p1 ~dst:0 in
  check "P0 not forced" false (B.must_force p0 ~src:1 mb);
  (* FDAS, in contrast, forces here: P0 has sent and m_b carries a new
     dependency on P1 *)
  let module F = Rdt_core.Fdas in
  let f0 = F.create ~n:2 ~pid:0 and f1 = F.create ~n:2 ~pid:1 in
  F.on_checkpoint f0;
  F.on_checkpoint f1;
  let fa = F.make_payload f0 ~dst:1 in
  F.absorb f1 ~src:0 fa;
  let fb = F.make_payload f1 ~dst:0 in
  check "FDAS forced" true (F.must_force f0 ~src:1 fb)

(* The Figure 3 / C1 scenario with three processes: the sender's causal
   matrix knows a sibling, so the receiver does not need to break the
   chain — knowledge FDAS does not have. *)
let test_bhmr_c1_sibling_knowledge () =
  let module B = (val Rdt_core.Bhmr.full) in
  let n = 3 in
  let p = Array.init n (fun pid -> B.create ~n ~pid) in
  Array.iter B.on_checkpoint p;
  (* P1 sends m1 to P2; P2 acknowledges to P1, so P1 learns that an
     on-line trackable path C_{1,1} ~> C_{2,1} exists *)
  let m1 = B.make_payload p.(1) ~dst:2 in
  check "P2 not forced" false (B.must_force p.(2) ~src:1 m1);
  B.absorb p.(2) ~src:1 m1;
  let m2 = B.make_payload p.(2) ~dst:1 in
  check "P1 not forced" false (B.must_force p.(1) ~src:2 m2);
  B.absorb p.(1) ~src:2 m2;
  (* P0 sends to P2 (sent_to[2] becomes true) *)
  let _to_p2 = B.make_payload p.(0) ~dst:2 in
  (* P1 now sends m4 to P0 carrying new deps on P1 and P2, but its causal
     matrix knows the sibling C_{1,·} ~> C_{2,·}: C1 must not fire *)
  let m4 = B.make_payload p.(1) ~dst:0 in
  check "P0 not forced (sibling known)" false (B.must_force p.(0) ~src:1 m4)

(* Same scenario without the acknowledgement: P1 does not know whether m1
   arrived, so the non-causal chain towards P2 might have no sibling and
   P0 must break it. *)
let test_bhmr_c1_fires_without_knowledge () =
  let module B = (val Rdt_core.Bhmr.full) in
  let n = 3 in
  let p = Array.init n (fun pid -> B.create ~n ~pid) in
  Array.iter B.on_checkpoint p;
  let _m1 = B.make_payload p.(1) ~dst:2 in
  (* no delivery, no ack *)
  let _to_p2 = B.make_payload p.(0) ~dst:2 in
  let m4 = B.make_payload p.(1) ~dst:0 in
  check "P0 forced (no sibling known)" true (B.must_force p.(0) ~src:1 m4)

let test_bhmr_tdv_maintenance () =
  let module B = (val Rdt_core.Bhmr.full) in
  let p0 = B.create ~n:2 ~pid:0 and p1 = B.create ~n:2 ~pid:1 in
  B.on_checkpoint p0;
  B.on_checkpoint p1;
  (match B.tdv p0 with
  | Some v -> Alcotest.(check (array int)) "after initial ckpt" [| 1; 0 |] v
  | None -> Alcotest.fail "expected a TDV");
  let ma = B.make_payload p0 ~dst:1 in
  B.absorb p1 ~src:0 ma;
  (match B.tdv p1 with
  | Some v -> Alcotest.(check (array int)) "merged" [| 1; 1 |] v
  | None -> Alcotest.fail "expected a TDV");
  B.on_checkpoint p1;
  match B.tdv p1 with
  | Some v -> Alcotest.(check (array int)) "after ckpt" [| 1; 2 |] v
  | None -> Alcotest.fail "expected a TDV"

(* ------------------------------------------------------------------ *)
(* Packed BHMR against the bool-matrix model                           *)
(* ------------------------------------------------------------------ *)

module Model = Rdt_test_helpers.Bhmr_model

(* one step of a schedule, its operands reduced modulo what exists *)
type step = Ckpt of int | Send of int * int | Deliver of int

let step_gen =
  QCheck.Gen.(
    frequency
      [
        (1, map (fun p -> Ckpt p) nat);
        (3, map2 (fun p q -> Send (p, q)) nat nat);
        (3, map (fun i -> Deliver i) nat);
      ])

let schedule_arbitrary =
  let print (variant, n, steps) =
    Printf.sprintf "%s n=%d, %d steps"
      (match variant with Model.Full -> "bhmr" | V1 -> "bhmr-v1" | V2 -> "bhmr-v2")
      n (List.length steps)
  in
  QCheck.make ~print
    QCheck.Gen.(
      triple
        (oneofl [ Model.Full; V1; V2 ])
        (oneofl [ 2; 16; 62; 63; 64; 127 ])
        (list_size (int_range 0 300) step_gen))

let packed_agrees_with_model (m : Model.state) (p : Rdt_core.Bhmr.state) =
  let n = m.Model.n and mem = Control.mem in
  let w = Control.words ~n in
  let row_agrees bools packed ~at =
    Array.for_all Fun.id (Array.mapi (fun j b -> mem packed ~at j = b) bools)
    (* the bits past [n] in the row's last word stay clear *)
    && (n mod 63 = 0 || packed.(at + w - 1) lsr (n mod 63) = 0)
  in
  p.tdv = m.tdv
  && row_agrees m.sent_to p.sent_to ~at:0
  && (if m.variant = Full then row_agrees m.simple p.simple ~at:0 else p.simple = [||])
  && Array.length p.causal = n * w
  && Array.for_all Fun.id (Array.mapi (fun k row -> row_agrees row p.causal ~at:(k * w)) m.causal)

(* Drive the packed protocol and the model through the same schedule.
   Processes are drawn half the time from either side of the row-word
   boundaries, so their bits sit at the edges of the words. *)
let packed_bhmr_matches_model =
  QCheck.Test.make ~name:"packed BHMR state, forcing and predicates = bool-matrix model"
    ~count:150 schedule_arbitrary (fun (variant, n, steps) ->
      let module B = (val Rdt_core.Bhmr.protocol variant) in
      let hot = List.sort_uniq compare (List.filter (fun p -> p < n) [ 0; 1; 62; 63; 64; n - 1 ]) in
      let pick x =
        if x land 1 = 0 then List.nth hot (x / 2 mod List.length hot) else x / 2 mod n
      in
      let model = Array.init n (fun pid -> Model.create variant ~n ~pid) in
      let packed = Array.init n (fun pid -> B.create ~n ~pid) in
      let checkpoint p =
        Model.on_checkpoint model.(p);
        B.on_checkpoint packed.(p)
      in
      for p = 0 to n - 1 do
        checkpoint p
      done;
      let in_flight = ref [] in
      let fail fmt = Printf.ksprintf (fun s -> QCheck.Test.fail_report s) fmt in
      let agree i p =
        if not (packed_agrees_with_model model.(p) packed.(p)) then
          fail "step %d: P%d's packed state differs from the model" i p
      in
      let mask_of named =
        List.fold_left
          (fun acc (name, v) ->
            let i = ref 0 in
            while Predicates.names.(!i) <> name do
              incr i
            done;
            if v then acc lor (1 lsl !i) else acc)
          0 named
      in
      List.iteri
        (fun i step ->
          match step with
          | Ckpt x ->
              let p = pick x in
              checkpoint p;
              agree i p
          | Send (x, y) ->
              let p = pick x in
              let q = (p + 1 + (y mod (n - 1))) mod n in
              let mm = Model.make_payload model.(p) ~dst:q in
              let pm = B.make_payload packed.(p) ~dst:q in
              in_flight := !in_flight @ [ (p, q, mm, pm) ];
              agree i p
          | Deliver _ when !in_flight = [] -> ()
          | Deliver x ->
              let k = x mod List.length !in_flight in
              let src, dst, mm, pm = List.nth !in_flight k in
              in_flight := List.filteri (fun j _ -> j <> k) !in_flight;
              let named = Model.predicates model.(dst) mm in
              let mask = B.predicates packed.(dst) ~src pm in
              if B.evaluated <> mask_of (List.map (fun (name, _) -> (name, true)) named) then
                fail "evaluated mask %d differs from the model's predicates" B.evaluated;
              if mask <> mask_of named then
                fail "step %d: predicate mask %d, model %d" i mask (mask_of named);
              let force = Model.must_force model.(dst) mm in
              if B.must_force packed.(dst) ~src pm <> force then
                fail "step %d: must_force differs from the model (%b)" i force;
              if force then checkpoint dst;
              Model.absorb model.(dst) ~src mm;
              B.absorb packed.(dst) ~src pm;
              agree i dst)
        steps;
      Array.iteri (fun p _ -> agree (List.length steps) p) model;
      true)

let test_simple_protocols_forcing_rules () =
  (* CBR forces on any delivery into a non-fresh interval *)
  let module C = Rdt_core.Cbr in
  let c = C.create ~n:2 ~pid:0 in
  C.on_checkpoint c;
  check "cbr fresh: no force" false (C.must_force c ~src:1 Control.Nothing);
  C.absorb c ~src:1 Control.Nothing;
  check "cbr second delivery: force" true (C.must_force c ~src:1 Control.Nothing);
  C.on_checkpoint c;
  check "cbr after ckpt: no force" false (C.must_force c ~src:1 Control.Nothing);
  (* NRAS forces only after a send *)
  let module N = Rdt_core.Nras in
  let s = N.create ~n:2 ~pid:0 in
  N.on_checkpoint s;
  N.absorb s ~src:1 Control.Nothing;
  check "nras deliveries ok" false (N.must_force s ~src:1 Control.Nothing);
  ignore (N.make_payload s ~dst:1);
  check "nras after send: force" true (N.must_force s ~src:1 Control.Nothing);
  (* CAS asks for a checkpoint after each send *)
  check "cas force_after_send" true Rdt_core.Cas.force_after_send;
  check "nras not after send" false Rdt_core.Nras.force_after_send

let test_bcs_scenario () =
  (* an arriving message from a later checkpoint index forces a
     checkpoint; one from the same or an earlier index does not *)
  let module B = Rdt_core.Bcs in
  let p0 = B.create ~n:2 ~pid:0 and p1 = B.create ~n:2 ~pid:1 in
  B.on_checkpoint p0;
  B.on_checkpoint p1;
  let ma = B.make_payload p0 ~dst:1 in
  check "same index: no force" false (B.must_force p1 ~src:0 ma);
  B.absorb p1 ~src:0 ma;
  B.on_checkpoint p0;
  B.on_checkpoint p0;
  let mb = B.make_payload p0 ~dst:1 in
  check "later index: force" true (B.must_force p1 ~src:0 mb);
  B.absorb p1 ~src:0 mb;
  (* after absorbing, P1 has jumped to P0's index *)
  let mc = B.make_payload p0 ~dst:1 in
  check "caught up: no force" false (B.must_force p1 ~src:0 mc)

let test_registry () =
  Alcotest.(check int) "10 protocols" 10 (List.length Registry.all);
  check "find bhmr" true (Registry.find "bhmr" <> None);
  check "find nothing" true (Registry.find "nope" = None);
  check "rdt list excludes none" true
    (List.for_all Protocol.ensures_rdt Registry.rdt_protocols);
  Alcotest.check_raises "find_exn"
    (Invalid_argument
       "unknown protocol \"nope\" (valid: cbr, nras, cas, fdi, fdas, bhmr-v2, bhmr-v1, bhmr, bcs, none)")
    (fun () -> ignore (Registry.find_exn "nope"))

(* ------------------------------------------------------------------ *)
(* Runtime                                                             *)
(* ------------------------------------------------------------------ *)

let env name = Rdt_workloads.Registry.find_exn name

let run ?(n = 5) ?(seed = 11) ?(messages = 400) ?(envname = "random") pname =
  let protocol = Registry.find_exn pname in
  Runtime.run
    {
      (Runtime.default_config (env envname) protocol) with
      Runtime.n;
      seed;
      max_messages = messages;
    }

let test_runtime_deterministic () =
  let a = run "bhmr" and b = run "bhmr" in
  Alcotest.(check int) "same forced" a.Runtime.metrics.Metrics.forced b.Runtime.metrics.Metrics.forced;
  Alcotest.(check int) "same basic" a.Runtime.metrics.Metrics.basic b.Runtime.metrics.Metrics.basic;
  check "same pattern summary" true
    (Format.asprintf "%a" P.pp_summary a.Runtime.pattern
    = Format.asprintf "%a" P.pp_summary b.Runtime.pattern)

let test_runtime_seed_matters () =
  let a = run ~seed:1 "bhmr" and b = run ~seed:2 "bhmr" in
  check "different runs" true
    (a.Runtime.metrics.Metrics.forced <> b.Runtime.metrics.Metrics.forced
    || a.Runtime.metrics.Metrics.duration <> b.Runtime.metrics.Metrics.duration)

let test_runtime_message_budget () =
  let r = run ~messages:123 "none" in
  Alcotest.(check int) "budget respected" 123 r.Runtime.metrics.Metrics.messages;
  Alcotest.(check int) "all delivered" 123 (P.num_messages r.Runtime.pattern)

let test_runtime_valid_pattern () =
  List.iter
    (fun pname ->
      let r = run pname in
      match P.validate r.Runtime.pattern with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s produced an invalid pattern: %s" pname e)
    (List.map Protocol.name Registry.all)

let test_runtime_bad_config () =
  Alcotest.check_raises "n too small" (Invalid_argument "Runtime: n must be >= 2") (fun () ->
      ignore
        (Runtime.run
           { (Runtime.default_config (env "random") (Registry.find_exn "bhmr")) with Runtime.n = 1 }))

let test_runtime_forced_counts_match_pattern () =
  List.iter
    (fun pname ->
      let r = run pname in
      Alcotest.(check int)
        (pname ^ " forced count = pattern forced count")
        r.Runtime.metrics.Metrics.forced
        (P.fold_ckpts r.Runtime.pattern ~init:0 ~f:(fun acc c ->
             if c.Rdt_pattern.Types.kind = Rdt_pattern.Types.Forced then acc + 1 else acc)))
    [ "bhmr"; "fdas"; "cbr"; "cas" ]

(* ------------------------------------------------------------------ *)
(* The RDT matrix: every protocol × every environment                  *)
(* ------------------------------------------------------------------ *)

let protocols_under_test = List.map Protocol.name Registry.rdt_protocols

let environments = List.map (fun (n, _, _) -> n) Rdt_workloads.Registry.all

let test_rdt_matrix () =
  List.iter
    (fun envname ->
      List.iter
        (fun pname ->
          let r = run ~envname ~n:4 ~messages:250 ~seed:5 pname in
          let report = Checker.run r.Runtime.pattern in
          if not report.Checker.rdt then
            Alcotest.failf "%s on %s violated RDT: %a" pname envname Checker.pp_report report)
        protocols_under_test)
    environments

let test_rdt_checkers_agree_on_protocol_runs () =
  List.iter
    (fun pname ->
      let r = run ~n:4 ~messages:200 pname in
      let a = (Checker.run r.Runtime.pattern).Checker.rdt in
      let b = (Checker.run ~algo:`Chains r.Runtime.pattern).Checker.rdt in
      let c = (Checker.run ~algo:`Doubling r.Runtime.pattern).Checker.rdt in
      check (pname ^ ": checkers agree") true (a = b && b = c && a = true))
    protocols_under_test

let test_none_violates_rdt () =
  (* independent checkpointing on a chatty workload must create hidden
     dependencies *)
  let r = run ~envname:"client-server" ~n:5 ~messages:400 "none" in
  let report = Checker.run r.Runtime.pattern in
  check "RDT violated" false report.Checker.rdt;
  check "violations reported" true (report.Checker.violations <> []);
  check "chains checker agrees" false (Checker.run ~algo:`Chains r.Runtime.pattern).Checker.rdt;
  check "doubling checker agrees" false (Checker.run ~algo:`Doubling r.Runtime.pattern).Checker.rdt

let test_online_tdv_consistent () =
  List.iter
    (fun pname ->
      let r = run ~n:4 ~messages:250 pname in
      check (pname ^ ": online TDV = offline replay") true
        (Checker.online_tdv_consistent r.Runtime.pattern))
    [ "fdi"; "fdas"; "bhmr-v2"; "bhmr-v1"; "bhmr" ]

let test_corollary_45 () =
  List.iter
    (fun pname ->
      let r = run ~n:4 ~messages:200 ~seed:3 pname in
      check (pname ^ ": Corollary 4.5") true (Min_gcp.corollary_holds r.Runtime.pattern))
    protocols_under_test

let test_corollary_45_fails_without_rdt () =
  let r = run ~envname:"client-server" ~n:5 ~messages:400 "none" in
  check "corollary needs RDT" false (Min_gcp.corollary_holds r.Runtime.pattern)

let test_bcs_no_useless_but_not_rdt () =
  (* BCS keeps every checkpoint useful in every environment… *)
  List.iter
    (fun envname ->
      let r = run ~envname ~n:4 ~messages:250 ~seed:5 "bcs" in
      let pat = r.Runtime.pattern in
      P.iter_ckpts pat (fun c ->
          if
            Rdt_pattern.Consistency.useless pat
              (c.Rdt_pattern.Types.owner, c.Rdt_pattern.Types.index)
          then Alcotest.failf "bcs produced a useless checkpoint on %s" envname))
    environments;
  (* …but does not ensure RDT: some run must exhibit a hidden dependency *)
  let violated = ref false in
  List.iter
    (fun envname ->
      List.iter
        (fun seed ->
          if not !violated then
            let r = run ~envname ~n:5 ~messages:400 ~seed "bcs" in
            if not (Checker.run r.Runtime.pattern).Checker.rdt then violated := true)
        [ 1; 2; 3 ])
    environments;
  check "bcs violates RDT somewhere" true !violated

let test_no_useless_checkpoints_under_rdt () =
  List.iter
    (fun pname ->
      let r = run ~n:4 ~messages:250 ~seed:9 pname in
      let pat = r.Runtime.pattern in
      P.iter_ckpts pat (fun c ->
          if Rdt_pattern.Consistency.useless pat (c.Rdt_pattern.Types.owner, c.Rdt_pattern.Types.index)
          then Alcotest.failf "%s produced a useless checkpoint" pname))
    protocols_under_test

let test_hierarchy_no_violations () =
  List.iter
    (fun envname ->
      List.iter
        (fun pname ->
          let r = run ~envname ~n:5 ~messages:400 ~seed:2 pname in
          match r.Runtime.hierarchy_violations with
          | [] -> ()
          | (w, s) :: _ ->
              Alcotest.failf "%s on %s: predicate %s fired without %s" pname envname w s)
        [ "fdas"; "bhmr-v2"; "bhmr-v1"; "bhmr" ])
    environments

let test_conservativeness_ordering () =
  (* mean forced checkpoints over a few seeds: the paper's generality
     hierarchy — each BHMR variant is at most as conservative as FDAS *)
  let mean pname =
    let seeds = [ 1; 2; 3; 4 ] in
    let total =
      List.fold_left
        (fun acc seed -> acc + (run ~seed ~n:6 ~messages:600 pname).Runtime.metrics.Metrics.forced)
        0 seeds
    in
    float_of_int total /. 4.0
  in
  let fdas = mean "fdas" and bhmr = mean "bhmr" and v1 = mean "bhmr-v1" and v2 = mean "bhmr-v2" in
  check "bhmr <= fdas" true (bhmr <= fdas +. 1e-9);
  check "v1 <= fdas" true (v1 <= fdas +. 1e-9);
  check "v2 <= fdas" true (v2 <= fdas +. 1e-9);
  check "bhmr <= v2" true (bhmr <= v2 +. 1e-9)

let test_min_gcp_of_tdv_matches_brute () =
  let r = run ~n:4 ~messages:200 ~seed:8 "bhmr" in
  let pat = r.Runtime.pattern in
  P.iter_ckpts pat (fun c ->
      let id = (c.Rdt_pattern.Types.owner, c.Rdt_pattern.Types.index) in
      let online = Min_gcp.of_tdv pat id in
      match Min_gcp.minimum pat id with
      | Some brute -> Alcotest.(check (array int)) "min gcp" brute online
      | None -> Alcotest.fail "no consistent GCP under RDT?")

let test_max_gcp_exists_under_rdt () =
  let r = run ~n:4 ~messages:200 ~seed:8 "bhmr" in
  let pat = r.Runtime.pattern in
  P.iter_ckpts pat (fun c ->
      let id = (c.Rdt_pattern.Types.owner, c.Rdt_pattern.Types.index) in
      match Min_gcp.maximum_of_set pat [ id ] with
      | Some v ->
          check "consistent" true (Rdt_pattern.Consistency.consistent_global pat v);
          check "contains target" true (v.(fst id) = snd id)
      | None -> Alcotest.fail "no max consistent GCP under RDT?")

(* Lemma 4.1: under the protocol there cannot exist two on-line trackable
   R-paths C_{i,x} ~> C_{k,z-1} and C_{k,z} ~> C_{i,x} — a dependency of a
   checkpoint on a *later* checkpoint of the same process would make
   C_{k,z-1}..C_{k,z} un-recoverable.  The conjunction is possible in
   unconstrained patterns (the `none` baseline exhibits it); every RDT
   protocol must exclude it. *)
let lemma_41_violations pat =
  let tdv = Rdt_pattern.Tdv.compute pat in
  let bad = ref 0 in
  let n = P.n pat in
  for i = 0 to n - 1 do
    for k = 0 to n - 1 do
      if i <> k then
        for x = 0 to P.last_index pat i do
          for z = 1 to P.last_index pat k do
            if
              Rdt_pattern.Tdv.trackable tdv (i, x) (k, z - 1)
              && Rdt_pattern.Tdv.trackable tdv (k, z) (i, x)
            then incr bad
          done
        done
    done
  done;
  !bad

let test_lemma_41 () =
  List.iter
    (fun pname ->
      let r = run ~n:4 ~messages:250 ~seed:3 pname in
      Alcotest.(check int) (pname ^ ": lemma 4.1") 0 (lemma_41_violations r.Runtime.pattern))
    protocols_under_test;
  let r = run ~n:4 ~messages:250 ~seed:3 "none" in
  check "baseline violates lemma 4.1" true (lemma_41_violations r.Runtime.pattern > 0)

(* Lemma 4.2: a message m from I_{i,x} to I_{j,y} extends every trackable
   dependency of C_{i,x} to C_{j,y}.  Not universal — m may have been sent
   before the dependency reached P_i — so it is exactly where the
   protocols earn their keep. *)
let lemma_42_holds pat =
  let tdv = Rdt_pattern.Tdv.compute pat in
  let ok = ref true in
  Array.iter
    (fun (m : Rdt_pattern.Types.message) ->
      let src_vec = Rdt_pattern.Tdv.at tdv (m.src, m.send_interval) in
      let dst_vec = Rdt_pattern.Tdv.at tdv (m.dst, m.recv_interval) in
      Array.iteri (fun k z -> if dst_vec.(k) < z then ok := false) src_vec;
      if dst_vec.(m.src) < m.send_interval then ok := false)
    (P.messages pat);
  !ok

let test_lemma_42 () =
  List.iter
    (fun pname ->
      let r = run ~n:4 ~messages:250 ~seed:6 pname in
      check (pname ^ ": lemma 4.2") true (lemma_42_holds r.Runtime.pattern))
    protocols_under_test;
  let r = run ~envname:"client-server" ~n:5 ~messages:400 ~seed:1 "none" in
  check "baseline violates lemma 4.2" false (lemma_42_holds r.Runtime.pattern)

(* Lemma 4.3: under the protocol, trackability is transitive.  Like
   Lemma 4.2 this is NOT universal (a chain realising the second leg may
   leave its interval before the first dependency arrived), so it is
   tested on protocol runs, not on arbitrary patterns. *)
let lemma_43_holds pat =
  let tdv = Rdt_pattern.Tdv.compute pat in
  let cks =
    P.fold_ckpts pat ~init:[] ~f:(fun acc c ->
        (c.Rdt_pattern.Types.owner, c.Rdt_pattern.Types.index) :: acc)
  in
  List.for_all
    (fun a ->
      List.for_all
        (fun b ->
          List.for_all
            (fun c ->
              (not (Rdt_pattern.Tdv.trackable tdv a b && Rdt_pattern.Tdv.trackable tdv b c))
              || Rdt_pattern.Tdv.trackable tdv a c)
            cks)
        cks)
    cks

let test_lemma_43 () =
  List.iter
    (fun pname ->
      let r = run ~n:4 ~messages:150 ~seed:2 pname in
      check (pname ^ ": lemma 4.3") true (lemma_43_holds r.Runtime.pattern))
    protocols_under_test

(* Definitional subtlety, pinned: the event-pattern protocols realise the
   literal per-interval Definition 3.3 (every Z-path leaving an interval
   has a causal sibling leaving the *same* interval); the TDV family only
   guarantees vector-level trackability, and strict gaps do occur in its
   runs even though RDT (the TDV property) holds. *)
let test_strict_definition_gap () =
  List.iter
    (fun pname ->
      List.iter
        (fun seed ->
          let r = run ~envname:"random" ~n:5 ~messages:300 ~seed pname in
          Alcotest.(check int)
            (pname ^ ": no strict gaps")
            0
            (Checker.strict_gaps r.Runtime.pattern))
        [ 1; 2; 3 ])
    [ "cbr"; "nras"; "cas" ];
  let bhmr_gaps = ref 0 in
  List.iter
    (fun seed ->
      let r = run ~envname:"random" ~n:5 ~messages:300 ~seed "bhmr" in
      bhmr_gaps := !bhmr_gaps + Checker.strict_gaps r.Runtime.pattern;
      (* and yet the RDT property itself holds *)
      check "RDT still holds" true (Checker.run r.Runtime.pattern).Checker.rdt)
    [ 1; 2; 3 ];
  check "bhmr has strict gaps" true (!bhmr_gaps > 0)

(* Wang's direct calculations agree with the orphan-elimination fixpoints
   on RDT patterns, for singletons and for cross-process pairs. *)
let test_wang_direct_calculations () =
  List.iter
    (fun (pname, envname) ->
      let r = run ~envname ~n:4 ~messages:250 ~seed:6 pname in
      let pat = r.Runtime.pattern in
      let cks =
        P.fold_ckpts pat ~init:[] ~f:(fun acc c ->
            (c.Rdt_pattern.Types.owner, c.Rdt_pattern.Types.index) :: acc)
      in
      let sets =
        List.map (fun c -> [ c ]) cks
        @ List.concat_map
            (fun a ->
              List.filter_map
                (fun b -> if fst a < fst b && (snd a + snd b) mod 3 = 0 then Some [ a; b ] else None)
                cks)
            cks
      in
      List.iter
        (fun set ->
          let mn_direct = Min_gcp.minimum_by_tdv pat set in
          let mn_fix = Min_gcp.minimum_of_set pat set in
          if mn_direct <> mn_fix then
            Alcotest.failf "%s/%s: minimum_by_tdv disagrees with the fixpoint" pname envname;
          let mx_direct = Min_gcp.maximum_by_rgraph pat set in
          let mx_fix = Min_gcp.maximum_of_set pat set in
          if mx_direct <> mx_fix then
            Alcotest.failf "%s/%s: maximum_by_rgraph disagrees with the fixpoint" pname envname)
        sets)
    [ ("bhmr", "random"); ("fdas", "client-server"); ("cbr", "prodcons") ]

(* Checker coherence on arbitrary (protocol-free) patterns: the three
   verdicts must agree even on RDT-violating patterns. *)
let checkers_agree_on_random_patterns =
  QCheck.Test.make ~name:"three RDT checkers agree on random patterns" ~count:120
    Rdt_test_helpers.Gen.pattern_arbitrary (fun pat ->
      let a = (Checker.run pat).Checker.rdt in
      let b = (Checker.run ~algo:`Chains pat).Checker.rdt in
      let c = (Checker.run ~algo:`Doubling pat).Checker.rdt in
      a = b && b = c)

let corollary_iff_checkable =
  QCheck.Test.make ~name:"RDT implies Corollary 4.5 on random patterns" ~count:60
    Rdt_test_helpers.Gen.small_pattern_arbitrary (fun pat ->
      let rdt = (Checker.run pat).Checker.rdt in
      (not rdt) || Min_gcp.corollary_holds pat)

(* ------------------------------------------------------------------ *)
(* Regressions                                                         *)
(* ------------------------------------------------------------------ *)

(* A stub protocol whose predicate values break the expected generality
   hierarchy in several places at once, so [hierarchy_violations] has
   more than one entry to order. *)
let violating_protocol : Protocol.t =
  (module struct
    type state = unit

    let name = "violating-stub"
    let describe = "test stub firing predicates out of hierarchy order"
    let ensures_rdt = false
    let ensures_no_useless = false
    let create ~n:_ ~pid:_ = ()
    let copy () = ()
    let on_checkpoint () = ()
    let make_payload () ~dst:_ = Control.Nothing
    let force_after_send = false
    let must_force () ~src:_ _ = false
    let absorb () ~src:_ _ = ()
    let tdv () = None
    let payload_bits ~n:_ = 0
    let evaluated = Predicates.(c1_bit lor c2_bit lor c2'_bit lor c_fdas_bit lor c_fdi_bit)
    let predicates () ~src:_ _ = Predicates.(c1_bit lor c2_bit lor c2'_bit lor c_fdi_bit)
  end)

let test_hierarchy_violations_sorted () =
  (* Hashtbl.fold order is unspecified and differs across OCaml versions;
     the reported violations must come out sorted on both runtime paths *)
  let expected = [ ("c1", "c_fdas"); ("c2", "c_fdas"); ("c2'", "c_fdas") ] in
  let run_with ?transport () =
    Runtime.run
      {
        (Runtime.default_config (env "random") violating_protocol) with
        Runtime.n = 4;
        seed = 5;
        max_messages = 100;
        transport;
      }
  in
  let reliable = run_with () in
  check "reliable path sorted" true (reliable.Runtime.hierarchy_violations = expected);
  let faulty = run_with ~transport:Rdt_dist.Transport.default_params () in
  check "faulty path sorted" true (faulty.Runtime.hierarchy_violations = expected)

let test_basic_continues_while_draining () =
  (* the send budget stops *sends*, not the computation: with a channel
     delay far longer than the whole sending phase, every delivery
     executes after the last send, and the basic-checkpoint timer must
     keep covering those tail intervals until the channels drain *)
  let check_path name transport =
    let tr = Rdt_obs.Trace.ring ~capacity:65536 in
    let r =
      Runtime.run
        {
          (Runtime.default_config (env "random") (Registry.find_exn "bhmr")) with
          Runtime.n = 4;
          seed = 2;
          max_messages = 12;
          channel = Rdt_dist.Channel.Uniform (8000, 9000);
          basic_period = (200, 400);
          transport;
          trace = tr;
        }
    in
    let last_send = ref 0 and last_basic = ref 0 in
    List.iter
      (fun ev ->
        match ev with
        | Rdt_obs.Trace.Send { time; _ } -> last_send := max !last_send time
        | Rdt_obs.Trace.Ckpt { kind = Rdt_pattern.Types.Basic; time; _ } ->
            last_basic := max !last_basic time
        | _ -> ())
      (Rdt_obs.Trace.events tr);
    check (name ^ ": messages all delivered") true
      (P.num_messages r.Runtime.pattern = r.Runtime.metrics.Metrics.messages);
    if not (!last_basic > !last_send) then
      Alcotest.failf "%s: no basic checkpoint after the last send (send t=%d, basic t=%d)"
        name !last_send !last_basic
  in
  check_path "reliable" None;
  check_path "faulty" (Some Rdt_dist.Transport.default_params)

let string_contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_checker_units_and_unknown_tracked () =
  let r = run ~n:4 ~messages:250 ~seed:3 "none" in
  let rg = Checker.run r.Runtime.pattern in
  let ch = Checker.run ~algo:`Chains r.Runtime.pattern in
  let db = Checker.run ~algo:`Doubling r.Runtime.pattern in
  check "baseline violates RDT" true (not rg.Checker.rdt);
  check "verdicts agree" true (rg.Checker.rdt = ch.Checker.rdt && ch.Checker.rdt = db.Checker.rdt);
  (* what [checked] counts is carried explicitly, never cross-compared *)
  check "rgraph counts rollback dependencies" true (rg.Checker.units = Checker.R_dependencies);
  check "chains counts rollback dependencies" true (ch.Checker.units = Checker.R_dependencies);
  check "doubling counts CM-paths" true (db.Checker.units = Checker.Cm_paths);
  check "populations differ" true (db.Checker.checked <> rg.Checker.checked);
  check "rgraph names a TDV witness" true
    (rg.Checker.violations <> []
    && List.for_all (fun v -> v.Checker.tracked <> None) rg.Checker.violations);
  check "chain search has no TDV witness" true
    (ch.Checker.violations <> []
    && List.for_all (fun v -> v.Checker.tracked = None) ch.Checker.violations);
  (* rendering: an unknown witness is stated, not printed as an entry *)
  check "honest rendering" true
    (string_contains (Format.asprintf "%a" Checker.pp_report ch) "no TDV witness");
  check "units rendered" true
    (string_contains (Format.asprintf "%a" Checker.pp_report db) "CM-paths"
    && string_contains (Format.asprintf "%a" Checker.pp_report rg) "rollback dependencies")

let () =
  Alcotest.run "rdt_core"
    [
      ( "regressions",
        [
          Alcotest.test_case "hierarchy violations sorted" `Quick
            test_hierarchy_violations_sorted;
          Alcotest.test_case "basic checkpoints while channels drain" `Quick
            test_basic_continues_while_draining;
          Alcotest.test_case "checker units and unknown witnesses" `Quick
            test_checker_units_and_unknown_tracked;
        ] );
      ( "predicates",
        [
          Alcotest.test_case "new_dep" `Quick test_predicates_new_dep;
          Alcotest.test_case "c1" `Quick test_predicates_c1;
          Alcotest.test_case "c1 across row words" `Quick test_predicates_c1_wide;
          Alcotest.test_case "c2" `Quick test_predicates_c2;
          Alcotest.test_case "c2'" `Quick test_predicates_c2';
          Alcotest.test_case "fdas/fdi" `Quick test_predicates_fdas_fdi;
        ] );
      ( "protocols",
        [
          Alcotest.test_case "bhmr C2 scenario (fig. 4)" `Quick test_bhmr_c2_scenario;
          Alcotest.test_case "bhmr C2 negative" `Quick test_bhmr_c2_negative;
          Alcotest.test_case "bhmr C1 sibling knowledge (fig. 3)" `Quick
            test_bhmr_c1_sibling_knowledge;
          Alcotest.test_case "bhmr C1 fires without knowledge" `Quick
            test_bhmr_c1_fires_without_knowledge;
          Alcotest.test_case "bhmr TDV maintenance" `Quick test_bhmr_tdv_maintenance;
          qt packed_bhmr_matches_model;
          Alcotest.test_case "event-pattern protocols" `Quick test_simple_protocols_forcing_rules;
          Alcotest.test_case "bcs index rule" `Quick test_bcs_scenario;
          Alcotest.test_case "registry" `Quick test_registry;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "deterministic" `Quick test_runtime_deterministic;
          Alcotest.test_case "seed matters" `Quick test_runtime_seed_matters;
          Alcotest.test_case "message budget" `Quick test_runtime_message_budget;
          Alcotest.test_case "valid patterns" `Quick test_runtime_valid_pattern;
          Alcotest.test_case "bad config" `Quick test_runtime_bad_config;
          Alcotest.test_case "forced counts" `Quick test_runtime_forced_counts_match_pattern;
        ] );
      ( "rdt-property",
        [
          Alcotest.test_case "all protocols × all environments" `Slow test_rdt_matrix;
          Alcotest.test_case "checkers agree on protocol runs" `Quick
            test_rdt_checkers_agree_on_protocol_runs;
          Alcotest.test_case "baseline violates RDT" `Quick test_none_violates_rdt;
          Alcotest.test_case "online TDV faithful" `Quick test_online_tdv_consistent;
          Alcotest.test_case "no useless checkpoints" `Quick test_no_useless_checkpoints_under_rdt;
          Alcotest.test_case "bcs: useful but not RDT" `Quick test_bcs_no_useless_but_not_rdt;
          Alcotest.test_case "predicate hierarchy" `Quick test_hierarchy_no_violations;
          Alcotest.test_case "conservativeness ordering" `Quick test_conservativeness_ordering;
          Alcotest.test_case "strict Definition 3.3 gap" `Quick test_strict_definition_gap;
          Alcotest.test_case "Lemma 4.1" `Quick test_lemma_41;
          Alcotest.test_case "Lemma 4.2" `Quick test_lemma_42;
          Alcotest.test_case "Lemma 4.3" `Quick test_lemma_43;
          qt checkers_agree_on_random_patterns;
        ] );
      ( "min-gcp",
        [
          Alcotest.test_case "Corollary 4.5 per protocol" `Quick test_corollary_45;
          Alcotest.test_case "Corollary needs RDT" `Quick test_corollary_45_fails_without_rdt;
          Alcotest.test_case "of_tdv = brute force" `Quick test_min_gcp_of_tdv_matches_brute;
          Alcotest.test_case "max GCP exists" `Quick test_max_gcp_exists_under_rdt;
          Alcotest.test_case "Wang's direct calculations" `Slow test_wang_direct_calculations;
          qt corollary_iff_checkable;
        ] );
    ]
