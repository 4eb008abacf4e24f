module Pattern = Rdt_pattern.Pattern
module Types = Rdt_pattern.Types

let check_line pat line =
  if Array.length line <> Pattern.n pat then invalid_arg "Message_log: line length mismatch";
  Array.iteri
    (fun i x ->
      if x < 0 || x > Pattern.last_index pat i then
        invalid_arg (Printf.sprintf "Message_log: C(%d,%d) does not exist" i x))
    line

let select pat ~line ~f =
  check_line pat line;
  let out = ref [] in
  Array.iter (fun (m : Types.message) -> if f m then out := m.Types.id :: !out) (Pattern.messages pat);
  List.rev !out

let orphans pat ~line =
  select pat ~line ~f:(fun m ->
      m.Types.send_interval > line.(m.Types.src) && m.Types.recv_interval <= line.(m.Types.dst))

let in_transit pat ~line =
  select pat ~line ~f:(fun m ->
      m.Types.send_interval <= line.(m.Types.src) && m.Types.recv_interval > line.(m.Types.dst))

type replay_cost = { replayed_messages : int; reexecuted_events : int }

let replay_cost pat ~crash =
  let outcome = Recovery_line.recover pat crash in
  let line = outcome.Recovery_line.line in
  {
    replayed_messages = List.length (in_transit pat ~line);
    reexecuted_events = Array.fold_left ( + ) 0 outcome.Recovery_line.lost_events;
  }
