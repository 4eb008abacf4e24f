exception Inconsistent of string

let inconsistent fmt = Printf.ksprintf (fun s -> raise (Inconsistent s)) fmt

type entry =
  | Send of { seq : int; msg : int }
  | Recv of { seq : int; msg : int }
  | Internal of { seq : int }
  | Ckpt of { seq : int; index : int }

let seq = function Send { seq; _ } | Recv { seq; _ } | Internal { seq } | Ckpt { seq; _ } -> seq

type t = {
  n : int;
  stacks : entry list array; (* surviving entries per process, newest first *)
  routes : (int, int * int) Hashtbl.t; (* msg -> (src, dst), every message sent *)
  undeliv : (int, unit) Hashtbl.t;
}

let create ~n =
  { n; stacks = Array.make n []; routes = Hashtbl.create 64; undeliv = Hashtbl.create 8 }

let check_pid h pid what =
  if pid < 0 || pid >= h.n then inconsistent "%s: pid %d out of range" what pid

let push h pid e = h.stacks.(pid) <- e :: h.stacks.(pid)

let send h ~seq ~msg ~src ~dst =
  check_pid h src "send";
  check_pid h dst "send";
  Hashtbl.replace h.routes msg (src, dst);
  push h src (Send { seq; msg })

let recv h ~seq ~msg ~dst =
  check_pid h dst "deliver";
  if not (Hashtbl.mem h.routes msg) then inconsistent "deliver of unknown message %d" msg;
  if Hashtbl.mem h.undeliv msg then inconsistent "deliver of undeliverable message %d" msg;
  push h dst (Recv { seq; msg })

let internal h ~seq ~pid =
  check_pid h pid "internal";
  push h pid (Internal { seq })

let checkpoint h ~seq ~pid ~index =
  check_pid h pid "ckpt";
  push h pid (Ckpt { seq; index })

let undeliverable h ~msg = Hashtbl.replace h.undeliv msg ()

let is_undeliverable h msg = Hashtbl.mem h.undeliv msg

let rollback h ~pid ~to_index =
  check_pid h pid "rollback";
  (* [popped] collects newest first onto an empty list, so it ends oldest
     first *)
  let rec pop popped = function
    | Ckpt { index; _ } :: _ as kept when index = to_index -> (kept, popped)
    | [] when to_index = 0 -> ([], popped) (* the implicit initial checkpoint *)
    | [] -> inconsistent "rollback of pid %d to missing checkpoint %d" pid to_index
    | e :: rest -> pop (e :: popped) rest
  in
  let kept, popped = pop [] h.stacks.(pid) in
  h.stacks.(pid) <- kept;
  popped

let iter h f =
  Array.to_list h.stacks
  |> List.mapi (fun pid stack -> List.rev_map (fun e -> (pid, e)) stack)
  |> List.concat
  |> List.sort (fun (_, a) (_, b) -> Int.compare (seq a) (seq b))
  |> List.iter (fun (pid, e) -> f pid e)

let to_pattern ~checkpoint h =
  let b = Pattern.Builder.create ~n:h.n in
  let handles = Hashtbl.create 64 in
  iter h (fun pid e ->
      match e with
      | Send { msg; _ } ->
          if not (is_undeliverable h msg) then begin
            match Hashtbl.find_opt h.routes msg with
            | Some (_, dst) -> Hashtbl.replace handles msg (Pattern.Builder.send b ~src:pid ~dst)
            | None -> inconsistent "no route recorded for message %d" msg
          end
      | Recv { msg; _ } -> (
          match Hashtbl.find_opt handles msg with
          | Some handle -> Pattern.Builder.recv b handle
          | None -> inconsistent "surviving delivery of rolled-back send %d" msg)
      | Internal _ -> Pattern.Builder.internal b pid
      | Ckpt { index = 0; _ } -> () (* taken by the builder at creation *)
      | Ckpt { seq; _ } ->
          let kind, tdv, time = checkpoint seq in
          ignore (Pattern.Builder.checkpoint ~kind ?tdv ~time b pid));
  Pattern.Builder.finish ~final_checkpoints:true b

let stacks h = Array.map List.rev h.stacks

let routes h =
  Rdt_dist.Tbl.bindings_sorted ~compare:Int.compare h.routes
  |> List.map (fun (msg, (src, dst)) -> (msg, src, dst))

let undeliverable_msgs h = Rdt_dist.Tbl.keys_sorted ~compare:Int.compare h.undeliv

let restore ~n ~stacks ~routes ~undeliverable =
  let h = create ~n in
  Array.iteri (fun pid stack -> h.stacks.(pid) <- List.rev stack) stacks;
  List.iter (fun (msg, src, dst) -> Hashtbl.replace h.routes msg (src, dst)) routes;
  List.iter (fun msg -> Hashtbl.replace h.undeliv msg ()) undeliverable;
  h
