module Pattern = Rdt_pattern.Pattern
module Types = Rdt_pattern.Types
module Consistency = Rdt_pattern.Consistency

type crash = { pid : Types.pid; available : int }

type outcome = {
  line : int array;
  rolled_back_ckpts : int array;
  lost_events : int array;
  domino_depth : int;
}

let max_consistent_bounded pat bounds =
  Pattern.check_line pat bounds ~length:"Recovery_line: bounds length mismatch"
    ~missing:(fun i b -> Printf.sprintf "Recovery_line: bound C(%d,%d) does not exist" i b);
  Option.get (Consistency.max_consistent_below (Consistency.messages pat) bounds)

let crash_at pat pid ~time =
  let available = ref 0 in
  Array.iter
    (fun (c : Types.ckpt) -> if c.kind <> Types.Final && c.time <= time then available := c.index)
    (Pattern.checkpoints pat pid);
  { pid; available = !available }

let recover pat crashes =
  let n = Pattern.n pat in
  let bounds = Array.init n (fun i -> Pattern.last_index pat i) in
  let crashed = Array.make n false in
  List.iter
    (fun { pid; available } ->
      if pid < 0 || pid >= n then invalid_arg "Recovery_line.recover: pid out of range";
      if crashed.(pid) then invalid_arg "Recovery_line.recover: duplicate crash";
      if available < 0 || available > Pattern.last_index pat pid then
        invalid_arg "Recovery_line.recover: unavailable checkpoint";
      crashed.(pid) <- true;
      bounds.(pid) <- available)
    crashes;
  let line = max_consistent_bounded pat bounds in
  let rolled_back_ckpts = Array.init n (fun i -> bounds.(i) - line.(i)) in
  let lost_events =
    Array.init n (fun i ->
        let cks = Pattern.checkpoints pat i in
        let keep_pos = cks.(line.(i)).Types.pos in
        let upto_pos = cks.(bounds.(i)).Types.pos in
        max 0 (upto_pos - keep_pos))
  in
  let domino_depth =
    let d = ref 0 in
    for i = 0 to n - 1 do
      if not crashed.(i) then d := max !d rolled_back_ckpts.(i)
    done;
    !d
  in
  { line; rolled_back_ckpts; lost_events; domino_depth }

let pp_outcome ppf o =
  let pp_vec ppf v =
    Format.fprintf ppf "[%s]" (String.concat ";" (List.map string_of_int (Array.to_list v)))
  in
  Format.fprintf ppf "line=%a rolled_back=%a lost_events=%a domino=%d" pp_vec o.line pp_vec
    o.rolled_back_ckpts pp_vec o.lost_events o.domino_depth
