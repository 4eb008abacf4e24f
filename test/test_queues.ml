(* Event_queue property tests against a sorted-list model at
   shard-merge sizes, since the sharded event core leans on its
   ordering guarantees. *)

module Event_queue = Rdt_dist.Event_queue

let qt = QCheck_alcotest.to_alcotest

(* model: stable sort by time of (time, insertion index) *)
let model_order times =
  List.stable_sort (fun (t1, _) (t2, _) -> compare t1 t2) (List.mapi (fun i t -> (t, i)) times)

let rec drain q acc =
  match Event_queue.pop q with None -> List.rev acc | Some x -> drain q (x :: acc)

(* times from a narrow range tie often, from a wide one rarely *)
let event_queue_model =
  QCheck.Test.make ~count:60
    ~name:"Event_queue pops by (time, insertion order) at shard-merge sizes"
    QCheck.(
      make
        Gen.(oneofl [ 50; 10_000 ] >>= fun bound -> list_size (int_range 0 3_000) (int_bound bound)))
    (fun times ->
      let q = Event_queue.create () in
      List.iteri (fun i time -> Event_queue.schedule q ~time i) times;
      drain q [] = model_order times)

(* Three schedules to a pop take the queue past 256 live entries (the
   property checks it did), so popped slots are reused while the arrays
   grow.  [peek_time] is checked against the model after every step. *)
let event_queue_interleaved =
  QCheck.Test.make ~count:60
    ~name:"Event_queue interleaved schedule/pop/peek_time matches (time, insertion) model"
    QCheck.(
      make
        Gen.(
          list_size (int_range 800 2_000)
            (frequency [ (3, map Option.some (int_bound 50)); (1, return None) ])))
    (fun ops ->
      (* Some t = schedule at t; None = pop *)
      let q = Event_queue.create () in
      let model = ref [] and next = ref 0 and live = ref 0 and peak = ref 0 in
      let insert e = List.merge compare [ e ] !model in
      List.for_all
        (fun op ->
          let step_ok =
            match op with
            | Some time ->
                Event_queue.schedule q ~time !next;
                model := insert (time, !next);
                incr next;
                incr live;
                peak := max !peak !live;
                true
            | None -> (
                let got = Event_queue.pop q in
                match !model with
                | [] -> got = None
                | m :: rest ->
                    model := rest;
                    decr live;
                    got = Some m)
          in
          step_ok
          && Event_queue.peek_time q = (match !model with [] -> None | (t, _) :: _ -> Some t)
          && Event_queue.is_empty q = (!model = []))
        ops
      && !peak > 256
      && drain q [] = !model)

(* A drained queue is reused: it keeps its grown arrays and its
   insertion counter, so a second batch must drain in the same model
   order as a fresh queue would, with no stale element. *)
let refill_after_drain =
  let times = QCheck.Gen.(list_size (int_range 0 300) (int_bound 20)) in
  QCheck.Test.make ~count:60 ~name:"second batch after a full drain pops in model order"
    (QCheck.make QCheck.Gen.(pair times times))
    (fun (first, second) ->
      let q = Event_queue.create () in
      let batch times =
        List.iteri (fun i time -> Event_queue.schedule q ~time i) times;
        drain q [] = model_order times && Event_queue.is_empty q
      in
      batch first && batch second)

let () =
  Alcotest.run "rdt_queues"
    [
      ("queues", [ qt event_queue_model; qt event_queue_interleaved ]);
      ("drain/refill", [ qt refill_after_drain ]);
    ]
