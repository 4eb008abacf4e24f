(* In-memory span recorder for the traced run.  A span is one call into
   a layer, timed from the benchmark side: name, start, end, parent span
   and request id.  Every span opened while another is open becomes its
   child and inherits its request id, so all spans of one frame or query
   share an id.  Nothing is written until [dump]; with recording off,
   [with_] is a plain call. *)

type span = { id : int; parent : int; req : int; name : string; t0 : float; t1 : float }

type t = {
  on : bool;
  mutable next : int;
  mutable open_ : (int * int) list;  (* (span id, request id), innermost first *)
  mutable done_ : span list;
}

let create ~on = { on; next = 1; open_ = []; done_ = [] }
let off = create ~on:false

let with_ t ?req name f =
  if not t.on then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent, inherited = match t.open_ with (p, r) :: _ -> (p, r) | [] -> (0, id) in
    let req = Option.value req ~default:inherited in
    let saved = t.open_ in
    t.open_ <- (id, req) :: saved;
    let t0 = Rdt_obs.Meter.now () in
    Fun.protect
      ~finally:(fun () ->
        t.open_ <- saved;
        t.done_ <- { id; parent; req; name; t0; t1 = Rdt_obs.Meter.now () } :: t.done_)
      f
  end

(* Record an interval measured elsewhere (the hosted daemon's steps). *)
let add t ?(parent = 0) name ~t0 ~t1 =
  if t.on then begin
    let id = t.next in
    t.next <- id + 1;
    t.done_ <- { id; parent; req = id; name; t0; t1 } :: t.done_;
    id
  end
  else 0

let spans t = List.rev t.done_
let dur s = s.t1 -. s.t0

(* Total and self time per span name: self is the span's duration minus
   the durations of its direct children. *)
let totals t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.))
    t.done_;
  let acc = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = dur s -. Option.value (Hashtbl.find_opt child s.id) ~default:0. in
      let calls, total, self_total =
        Option.value (Hashtbl.find_opt acc s.name) ~default:(0, 0., 0.)
      in
      Hashtbl.replace acc s.name (calls + 1, total +. dur s, self_total +. self))
    t.done_;
  fun name -> Option.value (Hashtbl.find_opt acc name) ~default:(0, 0., 0.)

let dump t file =
  Out_channel.with_open_text file (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\"start\":%.6f,\"end\":%.6f}\n" s.id
            s.parent s.req s.name s.t0 s.t1)
        (spans t))
