(* Tests for the rdt_dist substrate: PRNG, event queue, logical
   clocks, channel models. *)

module Rng = Rdt_dist.Rng
module Event_queue = Rdt_dist.Event_queue
module Vclock = Rdt_dist.Vclock
module Channel = Rdt_dist.Channel

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

(* one raw draw, as a probe of the stream *)
let draw rng = Rng.int rng (1 lsl 30)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (draw a) (draw b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if draw a <> draw b then differs := true
  done;
  check "different seeds diverge" true !differs

let test_rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  (* the split stream must not equal the parent's continuation *)
  let same = ref true in
  for _ = 1 to 20 do
    if draw a <> draw b then same := false
  done;
  check "split stream differs" false !same

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    check "0 <= v < 7" true (v >= 0 && v < 7)
  done;
  Alcotest.check_raises "bound 0 rejected" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_int_uniformish () =
  let rng = Rng.create 11 in
  let counts = Array.make 8 0 in
  let trials = 80_000 in
  for _ = 1 to trials do
    let v = Rng.int rng 8 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = trials / 8 in
      if abs (c - expected) > expected / 5 then
        Alcotest.failf "bucket %d count %d too far from %d" i c expected)
    counts

let test_rng_int_in () =
  let rng = Rng.create 9 in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng (-3) 3 in
    check "in [-3,3]" true (v >= -3 && v <= 3)
  done;
  Alcotest.(check int) "degenerate range" 5 (Rng.int_in rng 5 5)

let test_rng_float_bounds () =
  let rng = Rng.create 13 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    check "0 <= v < 2.5" true (v >= 0.0 && v < 2.5)
  done

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 17 in
  for _ = 1 to 100 do
    check "p=0 never" false (Rng.bernoulli rng 0.0);
    check "p=1 always" true (Rng.bernoulli rng 1.0)
  done

let test_rng_bernoulli_rate () =
  let rng = Rng.create 19 in
  let hits = ref 0 in
  let trials = 50_000 in
  for _ = 1 to trials do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int trials in
  check "rate near 0.3" true (abs_float (rate -. 0.3) < 0.02)

let test_rng_exponential_mean () =
  let rng = Rng.create 23 in
  let total = ref 0 in
  let trials = 50_000 in
  for _ = 1 to trials do
    let v = Rng.exponential_int rng ~mean:40 in
    check "positive" true (v >= 1);
    total := !total + v
  done;
  let mean = float_of_int !total /. float_of_int trials in
  check "mean near 40" true (abs_float (mean -. 40.0) < 3.0)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 31 in
  let a = Array.init 20 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 (fun i -> i)) sorted

let test_rng_pick () =
  let rng = Rng.create 37 in
  for _ = 1 to 100 do
    let v = Rng.pick rng [| 5; 6; 7 |] in
    check "member" true (List.mem v [ 5; 6; 7 ])
  done

(* ------------------------------------------------------------------ *)
(* Event queue                                                         *)
(* ------------------------------------------------------------------ *)

let test_queue_basic () =
  let q = Event_queue.create () in
  check "empty" true (Event_queue.is_empty q);
  Alcotest.(check (option int)) "peek empty" None (Event_queue.peek_time q);
  Alcotest.(check (option (pair int unit))) "pop empty" None (Event_queue.pop q);
  Event_queue.schedule q ~time:3 ();
  Event_queue.schedule q ~time:1 ();
  Event_queue.schedule q ~time:2 ();
  Alcotest.(check (option int)) "peek min" (Some 1) (Event_queue.peek_time q);
  Alcotest.(check (option (pair int unit))) "pop 1" (Some (1, ())) (Event_queue.pop q);
  Alcotest.(check (option (pair int unit))) "pop 2" (Some (2, ())) (Event_queue.pop q);
  Alcotest.(check (option (pair int unit))) "pop 3" (Some (3, ())) (Event_queue.pop q);
  check "empty again" true (Event_queue.is_empty q)

let test_queue_time_order () =
  let q = Event_queue.create () in
  Event_queue.schedule q ~time:30 "c";
  Event_queue.schedule q ~time:10 "a";
  Event_queue.schedule q ~time:20 "b";
  Alcotest.(check (option (pair int string))) "a" (Some (10, "a")) (Event_queue.pop q);
  Alcotest.(check (option (pair int string))) "b" (Some (20, "b")) (Event_queue.pop q);
  Alcotest.(check (option (pair int string))) "c" (Some (30, "c")) (Event_queue.pop q);
  Alcotest.(check (option (pair int string))) "empty" None (Event_queue.pop q)

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  for i = 0 to 99 do
    Event_queue.schedule q ~time:5 i
  done;
  for i = 0 to 99 do
    match Event_queue.pop q with
    | Some (5, v) -> Alcotest.(check int) "insertion order on ties" i v
    | _ -> Alcotest.fail "wrong pop"
  done

let test_queue_negative_time () =
  let q = Event_queue.create () in
  Alcotest.check_raises "negative time"
    (Invalid_argument "Event_queue.schedule: negative time") (fun () ->
      Event_queue.schedule q ~time:(-1) ())

let test_queue_peek_time () =
  let q = Event_queue.create () in
  Alcotest.(check (option int)) "empty" None (Event_queue.peek_time q);
  Event_queue.schedule q ~time:7 ();
  Alcotest.(check (option int)) "peek" (Some 7) (Event_queue.peek_time q)

(* ------------------------------------------------------------------ *)
(* Vector clocks                                                       *)
(* ------------------------------------------------------------------ *)

let vclock a =
  let v = Vclock.create ~n:(Array.length a) in
  Array.iteri (Vclock.set v) a;
  v

let test_vclock_basics () =
  let v = Vclock.create ~n:3 in
  Alcotest.(check int) "zero" 0 (Vclock.get v 1);
  Vclock.set v 1 2;
  Alcotest.(check int) "set" 2 (Vclock.get v 1);
  Vclock.set v 1 0;
  Alcotest.(check int) "unset" 0 (Vclock.get v 1);
  Alcotest.(check int) "nnz" 0 (Vclock.nnz v)

let test_vclock_merge () =
  let a = vclock [| 1; 5; 0 |] and b = vclock [| 3; 2; 0 |] in
  Vclock.merge a b;
  Alcotest.(check (array int)) "componentwise max" [| 3; 5; 0 |] (Vclock.to_array a)

let vclock_lattice =
  QCheck.Test.make ~name:"vclock merge is least upper bound" ~count:300
    QCheck.(pair (array_of_size (QCheck.Gen.return 4) (0 -- 10)) (array_of_size (QCheck.Gen.return 4) (0 -- 10)))
    (fun (xs, ys) ->
      let a = vclock xs and b = vclock ys in
      let m = Vclock.copy a in
      Vclock.merge m b;
      Array.to_list (Vclock.to_array m) = List.map2 max (Array.to_list xs) (Array.to_list ys))

(* Sparse pairs against a dense model at n up to 10^4: a vector is a
   few (position, value) draws, from all of [0, n) or from a small
   prefix so that the two operands overlap.  Zero values unset. *)
let sparse_pair =
  let open QCheck.Gen in
  let entries n =
    let pos = oneof [ 0 -- (n - 1); 0 -- min (n - 1) 12 ] in
    list_size (0 -- 40) (pair pos (0 -- 9))
  in
  let sparse =
    1 -- 10_000 >>= fun n ->
    pair (entries n) (entries n) >|= fun (a, b) ->
    let dense es =
      let d = Array.make n 0 in
      List.iter (fun (i, x) -> d.(i) <- x) es;
      d
    in
    (dense a, dense b)
  in
  (* every entry nonzero ([nnz = n]): the elementwise path of [join] *)
  let full =
    1 -- 64 >>= fun n ->
    let row = array_repeat n (1 -- 9) in
    pair row row
  in
  let gen = frequency [ (3, sparse); (1, full) ] in
  let print (a, b) =
    let nz d =
      String.concat " "
        (List.filter_map
           (fun i -> if d.(i) <> 0 then Some (Printf.sprintf "%d:%d" i d.(i)) else None)
           (List.init (Array.length d) Fun.id))
    in
    Printf.sprintf "n=%d a=[%s] b=[%s]" (Array.length a) (nz a) (nz b)
  in
  QCheck.make ~print gen

let vclock_join_model =
  QCheck.Test.make ~name:"vclock join = merge, reporting exactly the raised entries" ~count:300
    sparse_pair (fun (a, b) ->
      let v = vclock a and w = vclock b in
      let merged = Vclock.copy v in
      Vclock.merge merged w;
      let raised = ref [] in
      Vclock.join v w ~f:(fun i x -> raised := (i, x) :: !raised);
      let expected = ref [] in
      Array.iteri (fun i y -> if y > a.(i) then expected := (i, y) :: !expected) b;
      Vclock.to_array v = Array.map2 max a b
      && Vclock.to_array v = Vclock.to_array merged
      && Vclock.nnz v = Vclock.nnz merged
      && List.sort compare !raised = List.sort compare !expected
      && (* a second join raises nothing, and a self-join is a no-op *)
      (let again = ref 0 in
       Vclock.join v w ~f:(fun _ _ -> incr again);
       Vclock.join v v ~f:(fun _ _ -> incr again);
       !again = 0 && Vclock.to_array v = Array.map2 max a b))

let vclock_iter2_model =
  QCheck.Test.make ~name:"vclock iter2 = per-entry get over the first's nonzeros" ~count:300
    sparse_pair (fun (a, b) ->
      let v = vclock a and w = vclock b in
      let got = ref [] in
      Vclock.iter2 v w ~f:(fun i x y -> got := (i, x, y) :: !got);
      let expected = ref [] in
      Array.iteri (fun i x -> if x <> 0 then expected := (i, x, Vclock.get w i) :: !expected) a;
      !got = !expected)

(* ------------------------------------------------------------------ *)
(* Channels                                                            *)
(* ------------------------------------------------------------------ *)

let test_channel_bounds () =
  let rng = Rng.create 99 in
  for _ = 1 to 1000 do
    let d = Channel.sample rng (Channel.Uniform (5, 10)) in
    check "uniform in range" true (d >= 5 && d <= 10)
  done;
  for _ = 1 to 100 do
    Alcotest.(check int) "fixed" 4 (Channel.sample rng (Channel.Fixed 4))
  done;
  for _ = 1 to 1000 do
    let d = Channel.sample rng (Channel.Bimodal { fast = 2; slow = 50; slow_prob = 0.5 }) in
    check "bimodal one of" true (d = 2 || d = 50)
  done

let test_channel_validate () =
  check "ok uniform" true (Channel.validate (Channel.Uniform (1, 5)) = Ok ());
  check "bad uniform" true (Result.is_error (Channel.validate (Channel.Uniform (5, 1))));
  check "bad fixed" true (Result.is_error (Channel.validate (Channel.Fixed 0)));
  check "bad bimodal" true
    (Result.is_error
       (Channel.validate (Channel.Bimodal { fast = 5; slow = 2; slow_prob = 0.5 })))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "rdt_dist"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int uniform-ish" `Quick test_rng_int_uniformish;
          Alcotest.test_case "int_in" `Quick test_rng_int_in;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Quick test_rng_bernoulli_rate;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "pick" `Quick test_rng_pick;
        ] );
      ( "event_queue",
        [
          Alcotest.test_case "basic" `Quick test_queue_basic;
          Alcotest.test_case "time order" `Quick test_queue_time_order;
          Alcotest.test_case "fifo ties" `Quick test_queue_fifo_ties;
          Alcotest.test_case "negative time" `Quick test_queue_negative_time;
          Alcotest.test_case "peek/length" `Quick test_queue_peek_time;
        ] );
      ( "clocks",
        [
          Alcotest.test_case "vclock basics" `Quick test_vclock_basics;
          Alcotest.test_case "vclock merge" `Quick test_vclock_merge;
          q vclock_lattice;
          q vclock_join_model;
          q vclock_iter2_model;
        ] );
      ( "channel",
        [
          Alcotest.test_case "bounds" `Quick test_channel_bounds;
          Alcotest.test_case "validate" `Quick test_channel_validate;
        ] );
    ]
