type 'a entry = { time : int; seq : int; payload : 'a }

type 'a t = { heap : 'a entry Heap.t; mutable next_seq : int }

let compare_entry a b =
  let c = compare a.time b.time in
  if c <> 0 then c else compare a.seq b.seq

let create () = { heap = Heap.create ~cmp:compare_entry; next_seq = 0 }

let schedule q ~time payload =
  if time < 0 then invalid_arg "Event_queue.schedule: negative time";
  Heap.add q.heap { time; seq = q.next_seq; payload };
  q.next_seq <- q.next_seq + 1

let pop q =
  match Heap.pop q.heap with
  | None -> None
  | Some e -> Some (e.time, e.payload)

let peek_time q =
  match Heap.peek q.heap with
  | None -> None
  | Some e -> Some e.time

let is_empty q = Heap.is_empty q.heap
