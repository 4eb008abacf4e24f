type cell = { table : string; protocol : string; env : string; seed : int; seconds : float }

type t = {
  jobs : int;
  mutable cells : cell list; (* reversed *)
  mutable wall : float;
  mutable micro : (string * float * float option) list;
      (* reversed; benchmark name, ns/run, r² of the estimate *)
  mutable phases : (string * int * float) list; (* span name, calls, seconds; sorted *)
  mutable counters : (string * int) list; (* sorted *)
}

let create ~jobs = { jobs; cells = []; wall = 0.0; micro = []; phases = []; counters = [] }

let add t ~table ~protocol ~env ~seed ~seconds =
  t.cells <- { table; protocol; env; seed; seconds } :: t.cells

let add_micro ?r_square t ~name ~ns = t.micro <- (name, ns, r_square) :: t.micro

let set_wall t wall = t.wall <- wall

let wall t = t.wall

let record_obs t =
  t.phases <-
    List.map
      (fun (name, s) -> (name, s.Rdt_obs.Meter.calls, s.Rdt_obs.Meter.seconds))
      (Rdt_obs.Meter.spans Rdt_obs.Meter.default);
  t.counters <- Rdt_obs.Meter.counters Rdt_obs.Meter.default

let cells t = List.rev t.cells

let micro t = List.rev t.micro

(* Deterministic (sorted) per-key totals; keyed cells keep grid order. *)
let totals key t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun c ->
      let k = key c in
      let secs, n = try Hashtbl.find tbl k with Not_found -> (0.0, 0) in
      Hashtbl.replace tbl k (secs +. c.seconds, n + 1))
    t.cells;
  Rdt_dist.Tbl.bindings_sorted ~compare:String.compare tbl
  |> List.map (fun (k, (secs, n)) -> (k, secs, n))

let per_protocol t = totals (fun c -> c.protocol) t

let per_table t = totals (fun c -> c.table) t

(* ------------------------------------------------------------------ *)
(* JSON rendering (no external dependency)                             *)
(* ------------------------------------------------------------------ *)

let escape = Rdt_obs.Trace.json_escape

let json_float x =
  if Float.is_nan x || Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" (if Float.is_nan x then 0.0 else x)
  else Printf.sprintf "%.6f" x

let to_json t =
  let buf = Buffer.create 4096 in
  let cells = cells t in
  let ncells = List.length cells in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"rdt-bench/1\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"jobs\": %d,\n" t.jobs);
  Buffer.add_string buf (Printf.sprintf "  \"grid_wall_seconds\": %s,\n" (json_float t.wall));
  Buffer.add_string buf (Printf.sprintf "  \"cells\": %d,\n" ncells);
  Buffer.add_string buf
    (Printf.sprintf "  \"cells_per_second\": %s,\n"
       (json_float (if t.wall > 0.0 then float_of_int ncells /. t.wall else 0.0)));
  let obj_list name items render =
    Buffer.add_string buf (Printf.sprintf "  \"%s\": [" name);
    List.iteri
      (fun i x ->
        Buffer.add_string buf (if i = 0 then "\n    " else ",\n    ");
        Buffer.add_string buf (render x))
      items;
    Buffer.add_string buf (if items = [] then "]" else "\n  ]")
  in
  obj_list "per_protocol" (per_protocol t) (fun (p, secs, n) ->
      Printf.sprintf "{\"protocol\": \"%s\", \"seconds\": %s, \"cells\": %d}" (escape p)
        (json_float secs) n);
  Buffer.add_string buf ",\n";
  obj_list "per_table" (per_table t) (fun (tb, secs, n) ->
      Printf.sprintf "{\"table\": \"%s\", \"seconds\": %s, \"cells\": %d}" (escape tb)
        (json_float secs) n);
  Buffer.add_string buf ",\n";
  obj_list "micro" (micro t) (fun (name, ns, r_square) ->
      Printf.sprintf "{\"benchmark\": \"%s\", \"ns_per_run\": %s%s}" (escape name) (json_float ns)
        (match r_square with
        | Some r -> Printf.sprintf ", \"r_square\": %s" (json_float r)
        | None -> ""));
  Buffer.add_string buf ",\n";
  obj_list "phases" t.phases (fun (name, calls, secs) ->
      Printf.sprintf "{\"phase\": \"%s\", \"calls\": %d, \"seconds\": %s}" (escape name) calls
        (json_float secs));
  Buffer.add_string buf ",\n";
  obj_list "counters" t.counters (fun (name, v) ->
      Printf.sprintf "{\"counter\": \"%s\", \"value\": %d}" (escape name) v);
  Buffer.add_string buf ",\n";
  obj_list "cell_timings" cells (fun c ->
      Printf.sprintf
        "{\"table\": \"%s\", \"protocol\": \"%s\", \"env\": \"%s\", \"seed\": %d, \"seconds\": %s}"
        (escape c.table) (escape c.protocol) (escape c.env) c.seed (json_float c.seconds));
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

let write path t = Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (to_json t))
