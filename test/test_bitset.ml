(* Differential tests: chunked Bitset vs the original dense bitmap.

   The chunked Roaring-style [Rdt_pattern.Bitset] must be observationally
   identical to the dense implementation it replaced, which survives as
   [Rdt_test_helpers.Dense_bitset].  QCheck drives random op sequences
   through both side by side and compares every observable — membership,
   ascending iteration order and [union_into]'s changed bit — across
   capacities
   spanning several 4096-bit chunks so sparse chunks, dense promotions
   and chunk-boundary indices all get exercised.

   Also here: Heap / Event_queue property tests against a sorted-list
   model at shard-merge sizes, since the sharded event core leans on
   their ordering guarantees. *)

module Bitset = Rdt_pattern.Bitset
module Dense = Rdt_test_helpers.Dense_bitset
module Heap = Rdt_dist.Heap
module Event_queue = Rdt_dist.Event_queue

let qt = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Op-sequence differential                                            *)
(* ------------------------------------------------------------------ *)

type op =
  | Add of int (* fraction of capacity, scaled at run time *)
  | Mem of int
  | Grow of int (* additional capacity *)
  | Union of int (* seed selecting a random source set *)

let pp_op = function
  | Add i -> Printf.sprintf "add %d" i
  | Mem i -> Printf.sprintf "mem %d" i
  | Grow n -> Printf.sprintf "grow +%d" n
  | Union s -> Printf.sprintf "union seed:%d" s

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun i -> Add i) (int_bound 20_000));
        (3, map (fun i -> Mem i) (int_bound 20_000));
        (1, map (fun n -> Grow n) (int_range 1 9_000));
        (5, map (fun s -> Union s) (int_bound 1_000_000));
      ])

let gen_scenario =
  QCheck.Gen.(pair (int_range 1 20_000) (list_size (int_range 1 80) gen_op))

let arb_scenario =
  QCheck.make gen_scenario
    ~print:(fun (cap, ops) ->
      Printf.sprintf "cap=%d ops=[%s]" cap (String.concat "; " (List.map pp_op ops)))

(* Build the same pseudo-random source set in both representations.
   Deterministic from [seed] and the current capacity. *)
let make_sources seed cap =
  let rng = Rdt_dist.Rng.create seed in
  let c = Bitset.create cap and d = Dense.create cap in
  let n = Rdt_dist.Rng.int_in rng 0 (min cap 400) in
  for _ = 1 to n do
    let i = Rdt_dist.Rng.int_in rng 0 (cap - 1) in
    Bitset.add c i;
    Dense.add d i
  done;
  (c, d)

(* the members in ascending order, through the one traversal *)
let members t =
  let acc = ref [] in
  Bitset.iter (fun i -> acc := i :: !acc) t;
  List.rev !acc

let same_sets what c d =
  if members c <> Dense.to_list d then QCheck.Test.fail_reportf "%s: members differ" what

let diff_ops =
  QCheck.Test.make ~count:200 ~name:"chunked bitset = dense bitset on random op sequences"
    arb_scenario (fun (cap0, ops) ->
      let c = Bitset.create cap0 and d = Dense.create cap0 in
      (* the dense reference tracks the capacity both sets share *)
      let scale i = if Dense.capacity d = 0 then -1 else i mod Dense.capacity d in
      List.iter
        (fun op ->
          match op with
          | Add i ->
              let i = scale i in
              if i >= 0 then begin
                Bitset.add c i;
                Dense.add d i
              end
          | Mem i ->
              let i = scale i in
              if i >= 0 && Bitset.mem c i <> Dense.mem d i then
                QCheck.Test.fail_reportf "mem %d differs" i
          | Grow n ->
              let target = Dense.capacity d + n in
              Bitset.ensure_capacity c target;
              Dense.ensure_capacity d target
          | Union s ->
              let src_c, src_d = make_sources s (Dense.capacity d) in
              let ch_c = Bitset.union_into c src_c and ch_d = Dense.union_into d src_d in
              if ch_c <> ch_d then QCheck.Test.fail_reportf "union_into changed: %b vs %b" ch_c ch_d)
        ops;
      same_sets "final" c d;
      true)

(* ------------------------------------------------------------------ *)
(* Targeted unit tests: chunk boundaries, promotion, errors            *)
(* ------------------------------------------------------------------ *)

let test_chunk_boundaries () =
  let cap = 3 * 4096 in
  let t = Bitset.create cap in
  let probes = [ 0; 63; 64; 4095; 4096; 4097; 8191; 8192; cap - 1 ] in
  List.iter (Bitset.add t) probes;
  Alcotest.(check (list int)) "ascending members" (List.sort compare probes) (members t);
  List.iter
    (fun i -> Alcotest.(check bool) (Printf.sprintf "mem %d" i) true (Bitset.mem t i))
    probes;
  Alcotest.(check bool) "non-member" false (Bitset.mem t 1000)

let test_promotion_roundtrip () =
  (* push one chunk past the sparse->dense promotion threshold and make
     sure nothing is lost or reordered on the way *)
  let t = Bitset.create 4096 in
  let expected = List.init 200 (fun i -> (i * 17) mod 4096) |> List.sort_uniq compare in
  List.iter (Bitset.add t) expected;
  Alcotest.(check (list int)) "members survive promotion" expected (members t);
  let d = Dense.create 4096 in
  List.iter (Dense.add d) expected;
  Alcotest.(check (list int)) "matches dense" (Dense.to_list d) (members t)

let test_error_messages () =
  let expect_invalid msg f =
    match f () with
    | exception Invalid_argument m -> Alcotest.(check string) "message" msg m
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid "Bitset.create: negative capacity" (fun () -> Bitset.create (-1));
  let t = Bitset.create 10 in
  expect_invalid "Bitset: index out of bounds" (fun () -> Bitset.mem t 10);
  expect_invalid "Bitset: index out of bounds" (fun () -> Bitset.add t (-1));
  let big = Bitset.create 20 in
  expect_invalid "Bitset.union_into: capacity mismatch" (fun () -> Bitset.union_into t big)

let test_empty_set_is_cheap () =
  (* the whole point: an empty set over n=10^6 must cost O(n/4096) words *)
  let t = Bitset.create 1_000_000 in
  let words = Obj.reachable_words (Obj.repr t) in
  Alcotest.(check bool)
    (Printf.sprintf "empty 10^6-universe set is small (%d words)" words)
    true (words < 2_000);
  Bitset.add t 999_999;
  Alcotest.(check (list int)) "still works" [ 999_999 ] (members t)

let test_iter_allocation_free () =
  (* iteration walks each bitmap word as native ints; a boxed Int64 per
     set bit would cost tens of words each *)
  let t = Bitset.create 4096 in
  for i = 0 to 4095 do
    Bitset.add t i
  done;
  let sum = ref 0 in
  let f i = sum := !sum + i in
  let before = Gc.minor_words () in
  Bitset.iter f t;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every member visited" (4095 * 4096 / 2) !sum;
  Alcotest.(check bool)
    (Printf.sprintf "full dense chunk iterated in %.0f minor words" words)
    true (words < 64.)

(* ------------------------------------------------------------------ *)
(* Heap / Event_queue vs sorted-list model                             *)
(* ------------------------------------------------------------------ *)

let heap_model =
  QCheck.Test.make ~count:60 ~name:"Heap drains in sorted order at shard-merge sizes"
    QCheck.(make Gen.(list_size (int_range 0 3_000) (int_bound 10_000)))
    (fun xs ->
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.add h) xs;
      let rec drain acc = match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc) in
      drain [] = List.sort compare xs)

let heap_interleaved =
  QCheck.Test.make ~count:60 ~name:"Heap interleaved add/pop matches sorted-list model"
    QCheck.(make Gen.(list_size (int_range 0 500) (option (int_bound 1_000))))
    (fun ops ->
      (* Some x = add x; None = pop *)
      let h = Heap.create ~cmp:compare in
      let model = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Some x ->
              Heap.add h x;
              model := List.sort compare (x :: !model);
              Heap.peek h = (match !model with [] -> None | m :: _ -> Some m)
          | None -> (
              let got = Heap.pop h in
              match !model with
              | [] -> got = None
              | m :: rest ->
                  model := rest;
                  got = Some m))
        ops)

let event_queue_model =
  QCheck.Test.make ~count:60
    ~name:"Event_queue pops by (time, insertion order) at shard-merge sizes"
    QCheck.(make Gen.(list_size (int_range 0 3_000) (int_bound 50)))
    (fun times ->
      let q = Event_queue.create () in
      List.iteri (fun i time -> Event_queue.schedule q ~time i) times;
      (* model: stable sort by time of (time, insertion index) *)
      let model = List.stable_sort (fun (t1, _) (t2, _) -> compare t1 t2) (List.mapi (fun i t -> (t, i)) times) in
      let rec drain acc =
        match Event_queue.pop q with None -> List.rev acc | Some (t, i) -> drain ((t, i) :: acc)
      in
      drain [] = model)

let () =
  Alcotest.run "rdt_bitset"
    [
      ( "differential",
        [ qt diff_ops ] );
      ( "chunked",
        [
          Alcotest.test_case "chunk boundaries" `Quick test_chunk_boundaries;
          Alcotest.test_case "sparse->dense promotion" `Quick test_promotion_roundtrip;
          Alcotest.test_case "error messages" `Quick test_error_messages;
          Alcotest.test_case "empty set over 10^6 universe is O(chunks)" `Quick test_empty_set_is_cheap;
          Alcotest.test_case "iterating a dense chunk allocates nothing per bit" `Quick
            test_iter_allocation_free;
        ] );
      ( "queues",
        [ qt heap_model; qt heap_interleaved; qt event_queue_model ] );
    ]
