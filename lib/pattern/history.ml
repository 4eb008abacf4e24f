exception Inconsistent of string

let inconsistent fmt = Printf.ksprintf (fun s -> raise (Inconsistent s)) fmt

type entry =
  | Send of { seq : int; msg : int }
  | Recv of { seq : int; msg : int }
  | Internal of { seq : int }
  | Ckpt of { seq : int; index : int }

let seq = function Send { seq; _ } | Recv { seq; _ } | Internal { seq } | Ckpt { seq; _ } -> seq

module Routes = Rdt_dist.Tbl.Int

type t = {
  n : int;
  stacks : entry list array; (* surviving entries per process, newest first *)
  routes : int Routes.t; (* msg -> its latest record in [arrived] *)
  mutable arrived : int array; (* (msg, src, dst) triples, one per send, in arrival order *)
  mutable n_arrived : int;
  undeliv : (int, unit) Hashtbl.t;
}

let create ~n =
  {
    n;
    stacks = Array.make n [];
    routes = Routes.create 64;
    arrived = Array.make 48 0;
    n_arrived = 0;
    undeliv = Hashtbl.create 8;
  }

let add_route h ~msg ~src ~dst =
  Routes.replace h.routes msg h.n_arrived;
  let i = 3 * h.n_arrived in
  if i + 3 > Array.length h.arrived then begin
    let a = Array.make (2 * Array.length h.arrived) 0 in
    Array.blit h.arrived 0 a 0 i;
    h.arrived <- a
  end;
  h.arrived.(i) <- msg;
  h.arrived.(i + 1) <- src;
  h.arrived.(i + 2) <- dst;
  h.n_arrived <- h.n_arrived + 1

let check_pid h pid what =
  if pid < 0 || pid >= h.n then inconsistent "%s: pid %d out of range" what pid

(* most streams abandon nothing: skip the hash of an empty table *)
let is_undeliverable h msg = Hashtbl.length h.undeliv > 0 && Hashtbl.mem h.undeliv msg

let push h pid e = h.stacks.(pid) <- e :: h.stacks.(pid)

let send h ~seq ~msg ~src ~dst =
  check_pid h src "send";
  check_pid h dst "send";
  add_route h ~msg ~src ~dst;
  push h src (Send { seq; msg })

let recv h ~seq ~msg ~dst =
  check_pid h dst "deliver";
  if not (Routes.mem h.routes msg) then inconsistent "deliver of unknown message %d" msg;
  if is_undeliverable h msg then inconsistent "deliver of undeliverable message %d" msg;
  push h dst (Recv { seq; msg })

let internal h ~seq ~pid =
  check_pid h pid "internal";
  push h pid (Internal { seq })

let checkpoint h ~seq ~pid ~index =
  check_pid h pid "ckpt";
  push h pid (Ckpt { seq; index })

let undeliverable h ~msg = Hashtbl.replace h.undeliv msg ()

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
            match Routes.find_opt h.routes msg with
            | Some r ->
                let dst = h.arrived.((3 * r) + 2) in
                Hashtbl.replace handles msg (Pattern.Builder.send b ~src:pid ~dst)
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
  Pattern.Builder.finish b

let stacks h = Array.map List.rev h.stacks

let stack_newest_first h pid = h.stacks.(pid)

let routes_arrived h = h.n_arrived

let iter_routes_from h ~from f =
  for i = max 0 from to h.n_arrived - 1 do
    f h.arrived.(3 * i) h.arrived.((3 * i) + 1) h.arrived.((3 * i) + 2)
  done

(* the records each message's route points at, its latest, by id *)
let routes h =
  let latest = ref [] in
  for r = h.n_arrived - 1 downto 0 do
    let msg = h.arrived.(3 * r) in
    if Routes.find h.routes msg = r then
      latest := (msg, h.arrived.((3 * r) + 1), h.arrived.((3 * r) + 2)) :: !latest
  done;
  List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) !latest

let undeliverable_msgs h = Rdt_dist.Tbl.keys_sorted ~compare:Int.compare h.undeliv

let restore ~n ~stacks ~routes ~undeliverable =
  let h = create ~n in
  Array.iteri (fun pid stack -> h.stacks.(pid) <- List.rev stack) stacks;
  List.iter (fun (msg, src, dst) -> add_route h ~msg ~src ~dst) routes;
  List.iter (fun msg -> Hashtbl.replace h.undeliv msg ()) undeliverable;
  h
