(* Heap / Event_queue property tests against a sorted-list model at
   shard-merge sizes, since the sharded event core leans on their
   ordering guarantees. *)

module Heap = Rdt_dist.Heap
module Event_queue = Rdt_dist.Event_queue

let qt = QCheck_alcotest.to_alcotest

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

(* A drained queue is reused: the heap keeps its grown array and the
   event queue its insertion counter, so a second batch must drain in
   the same model order as a fresh queue would, with no stale element. *)
let refill_after_drain =
  let times = QCheck.Gen.(list_size (int_range 0 300) (int_bound 20)) in
  QCheck.Test.make ~count:60 ~name:"second batch after a full drain pops in model order"
    (QCheck.make QCheck.Gen.(pair times times))
    (fun (first, second) ->
      let h = Heap.create ~cmp:compare in
      let q = Event_queue.create () in
      let rec drain pop acc = match pop () with None -> List.rev acc | Some x -> drain pop (x :: acc) in
      let batch times =
        List.iter (Heap.add h) times;
        List.iteri (fun i time -> Event_queue.schedule q ~time i) times;
        let indexed = List.mapi (fun i t -> (t, i)) times in
        let model = List.stable_sort (fun (t1, _) (t2, _) -> compare t1 t2) indexed in
        drain (fun () -> Heap.pop h) [] = List.sort compare times
        && drain (fun () -> Event_queue.pop q) [] = model
        && Heap.is_empty h && Event_queue.is_empty q
      in
      batch first && batch second)

let () =
  Alcotest.run "rdt_queues"
    [
      ("queues", [ qt heap_model; qt heap_interleaved; qt event_queue_model ]);
      ("drain/refill", [ qt refill_after_drain ]);
    ]
