module T = Rdt_pattern.Types
module H = Rdt_pattern.History

let meta events =
  List.find_map
    (function
      | Trace.Meta { n; protocol; env; seed; mode } -> Some (n, protocol, env, seed, mode)
      | _ -> None)
    events

let verdicts events =
  List.filter_map (function Trace.Verdict { checker; rdt } -> Some (checker, rdt) | _ -> None)
    events

let process_count events =
  match meta events with
  | Some (n, _, _, _, _) -> Ok n
  | None ->
      (* infer from the largest pid mentioned *)
      let m = ref (-1) in
      List.iter
        (fun ev ->
          match ev with
          | Trace.Send { src; dst; _ }
          | Deliver { src; dst; _ }
          | Retransmit { src; dst; _ }
          | Drop { src; dst; _ }
          | Undeliverable { src; dst; _ }
          | Replay { src; dst; _ } ->
              m := max !m (max src dst)
          | Internal { pid; _ } | Ckpt { pid; _ } | Rollback { pid; _ } -> m := max !m pid
          | Meta _ | Verdict _ -> ())
        events;
      if !m < 0 then Error "empty trace: no events and no meta header" else Ok (!m + 1)

let rebuild events =
  match process_count events with
  | Error _ as e -> e
  | Ok n -> (
      try
        let h = H.create ~n in
        (* what the history does not keep of a checkpoint, by seq *)
        let ckpts = Hashtbl.create 64 in
        List.iteri
          (fun seq ev ->
            match ev with
            | Trace.Meta _ | Verdict _ | Retransmit _ | Drop _ | Replay _ ->
                (* transport noise and annotations: no pattern effect (a
                   replayed delivery shows up as a fresh Deliver) *)
                ()
            | Send { msg; src; dst; time = _ } -> H.send h ~seq ~msg ~src ~dst
            | Deliver { msg; src = _; dst; time = _ } -> H.recv h ~seq ~msg ~dst
            | Internal { pid; time = _ } -> H.internal h ~seq ~pid
            | Ckpt { pid; index; kind; time; tdv; preds = _ } ->
                H.checkpoint h ~seq ~pid ~index;
                Hashtbl.replace ckpts seq (kind, tdv, time)
            | Undeliverable { msg; _ } -> H.undeliverable h ~msg
            | Rollback { pid; to_index; time = _ } -> ignore (H.rollback h ~pid ~to_index))
          events;
        Ok (H.to_pattern ~checkpoint:(Hashtbl.find ckpts) h)
      with H.Inconsistent e | Invalid_argument e -> Error e)

type summary = {
  n : int;
  events : int;
  by_kind : (string * int) list;
  forced_by_pred : (string * int) list;
  max_time : int;
}

let summarize events =
  let counts = Hashtbl.create 16 in
  let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  let preds_tbl = Hashtbl.create 8 in
  let max_time = ref 0 in
  let max_pid = ref (-1) in
  let meta_n = ref None in
  List.iter
    (fun ev ->
      bump counts (Trace.kind_name ev);
      (match ev with
      | Trace.Meta { n; _ } -> meta_n := Some n
      | Send { src; dst; time; _ }
      | Deliver { src; dst; time; _ }
      | Undeliverable { src; dst; time; _ }
      | Replay { src; dst; time; _ }
      | Retransmit { src; dst; time; _ }
      | Drop { src; dst; time } ->
          max_pid := max !max_pid (max src dst);
          max_time := max !max_time time
      | Internal { pid; time }
      | Ckpt { pid; time; _ }
      | Rollback { pid; time; _ } ->
          max_pid := max !max_pid pid;
          max_time := max !max_time time
      | Verdict _ -> ());
      match ev with
      | Ckpt { kind = T.Forced; preds; _ } ->
          bump preds_tbl (if preds = [] then "(none)" else String.concat "," preds)
      | _ -> ())
    events;
  {
    n = (match !meta_n with Some n -> n | None -> !max_pid + 1);
    events = List.length events;
    by_kind = List.map (fun k -> (k, Option.value ~default:0 (Hashtbl.find_opt counts k))) Trace.kind_names;
    forced_by_pred = Rdt_dist.Tbl.bindings_sorted ~compare:String.compare preds_tbl;
    max_time = !max_time;
  }

let pp_summary ppf s =
  Format.fprintf ppf "processes:      %d@." s.n;
  Format.fprintf ppf "events:         %d@." s.events;
  Format.fprintf ppf "last timestamp: %d@." s.max_time;
  List.iter
    (fun (k, c) -> if c > 0 then Format.fprintf ppf "  %-14s %d@." k c)
    s.by_kind;
  if s.forced_by_pred <> [] then begin
    Format.fprintf ppf "forced checkpoints by predicate:@.";
    List.iter (fun (k, c) -> Format.fprintf ppf "  %-14s %d@." k c) s.forced_by_pred
  end
