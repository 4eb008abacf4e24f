module Pattern = Rdt_pattern.Pattern
module Rgraph = Rdt_pattern.Rgraph
module Tdv = Rdt_pattern.Tdv
module Chains = Rdt_pattern.Chains
module Vclock = Rdt_dist.Vclock
module Ptypes = Rdt_pattern.Types
module Online = Rdt_check.Online

type violation = {
  from_ckpt : Ptypes.ckpt_id;
  to_ckpt : Ptypes.ckpt_id;
  tracked : int option;
}

type units = R_dependencies | Cm_paths

type algo = [ `Rgraph | `Chains | `Doubling | `Online ]

type report = {
  algo : algo;
  rdt : bool;
  violations : violation list;
  checked : int;
  units : units;
  first_violation : int option;
  seconds : float;
}

let max_reported = 20

let algo_name = function
  | `Rgraph -> "rgraph"
  | `Chains -> "chains"
  | `Doubling -> "doubling"
  | `Online -> "online"

let all_algos : algo list = [ `Rgraph; `Chains; `Doubling; `Online ]

let algo_of_string s =
  match String.lowercase_ascii s with
  | "rgraph" | "rgraph_tdv" | "tdv" -> Ok `Rgraph
  | "chains" -> Ok `Chains
  | "doubling" -> Ok `Doubling
  | "online" -> Ok `Online
  | _ ->
      Error
        (Printf.sprintf "unknown checker algorithm %S (expected rgraph, chains, doubling or online)"
           s)

let pp_violation ppf v =
  match v.tracked with
  | Some t ->
      Format.fprintf ppf "R-path %a ~> %a is not trackable (TDV entry = %d)" Ptypes.pp_ckpt_id
        v.from_ckpt Ptypes.pp_ckpt_id v.to_ckpt t
  | None ->
      Format.fprintf ppf "R-path %a ~> %a is not trackable (no TDV witness)" Ptypes.pp_ckpt_id
        v.from_ckpt Ptypes.pp_ckpt_id v.to_ckpt

let units_name = function R_dependencies -> "rollback dependencies" | Cm_paths -> "CM-paths"

let pp_report ppf r =
  if r.rdt then Format.fprintf ppf "RDT holds (%d %s checked)" r.checked (units_name r.units)
  else
    Format.fprintf ppf "RDT VIOLATED (%d %s checked):@,%a" r.checked (units_name r.units)
      (Format.pp_print_list pp_violation)
      r.violations

(* For every checkpoint C_{j,y} and every process i, the strongest real
   rollback dependency is x* = max { x | C_{i,x} ~> C_{j,y} }; the pattern
   is RDT iff that dependency is trackable everywhere (Tdv.tracks).
   Dependencies that do not exist are never checked: x* = -1.  [walk]
   visits them in (j, y, i) order: [visit c reach violation] gets the
   max-reach row of c = C_{j,y}, whose entry i holds x* + 1, and calls
   [violation] on each untrackable one; the first [max_reported] are
   kept. *)
let walk ~algo pat visit =
  let g = Rgraph.build pat in
  let violations = ref [] and count = ref 0 and checked = ref 0 in
  let violation from_ckpt to_ckpt tracked =
    incr count;
    if !count <= max_reported then violations := { from_ckpt; to_ckpt; tracked } :: !violations
  in
  for j = 0 to Pattern.n pat - 1 do
    for y = 0 to Pattern.last_index pat j do
      let c = (j, y) in
      let reach = Rgraph.max_reach g c in
      checked := !checked + Vclock.nnz reach;
      visit c reach violation
    done
  done;
  {
    algo;
    rdt = !count = 0;
    violations = List.rev !violations;
    checked = !checked;
    units = R_dependencies;
    first_violation = None;
    seconds = 0.;
  }

let meter name checked f =
  Rdt_obs.Meter.time Rdt_obs.Meter.default name (fun () ->
      let r = f () in
      Rdt_obs.Meter.add Rdt_obs.Meter.default checked r.checked;
      r)

(* One paired pass per checkpoint over the max-reach row and TDV_{j,y}. *)
let run_rgraph pat =
  meter "checker.rgraph_tdv" "checker.dependencies" @@ fun () ->
  let tdv = Tdv.compute pat in
  walk ~algo:`Rgraph pat (fun c reach violation ->
      Vclock.iter2 reach (Tdv.snapshot tdv c) ~f:(fun i r tracked ->
          let x_star = r - 1 in
          if not (Tdv.tracks ~tracked x_star) then violation (i, x_star) c (Some tracked)))

(* The chain search decides trackability without a TDV, so a violation
   carries no witness. *)
let run_chains pat =
  meter "checker.chains" "checker.dependencies" @@ fun () ->
  walk ~algo:`Chains pat (fun c reach violation ->
      Vclock.iteri reach ~f:(fun i r ->
          let x_star = r - 1 in
          if not (Chains.trackable pat (i, x_star) c) then violation (i, x_star) c None))

let run_doubling pat =
  meter "checker.doubling" "checker.cm_paths" @@ fun () ->
  let tdv = Tdv.compute pat in
  let cm = Chains.cm_paths pat in
  let undoubled = Chains.undoubled_cm_paths pat tdv in
  let violations =
    List.filteri
      (fun k _ -> k < max_reported)
      (List.map
         (fun (p : Chains.cm_path) ->
           let i, _ = p.origin in
           { from_ckpt = p.origin; to_ckpt = p.target; tracked = Some (Tdv.at tdv p.target).(i) })
         undoubled)
  in
  {
    algo = `Doubling;
    rdt = undoubled = [];
    violations;
    checked = List.length cm;
    units = Cm_paths;
    first_violation = None;
    seconds = 0.;
  }

let run_online pat =
  meter "checker.online" "checker.dependencies" @@ fun () ->
  let eng = Online.check_pattern pat in
  Rdt_obs.Meter.add Rdt_obs.Meter.default "checker.online_events" (Online.events_seen eng);
  let violations =
    Online.violations eng
    |> List.filteri (fun k _ -> k < max_reported)
    |> List.map (fun (v : Online.violation) ->
           { from_ckpt = v.from_ckpt; to_ckpt = v.to_ckpt; tracked = Some v.tracked })
  in
  {
    algo = `Online;
    rdt = Online.rdt_so_far eng;
    violations;
    checked = Online.checked eng;
    units = R_dependencies;
    first_violation = Online.first_violation eng;
    seconds = 0.;
  }

let run ?(algo = `Rgraph) pat =
  let t0 = Rdt_obs.Meter.now () in
  let r =
    match algo with
    | `Rgraph -> run_rgraph pat
    | `Chains -> run_chains pat
    | `Doubling -> run_doubling pat
    | `Online -> run_online pat
  in
  { r with seconds = Rdt_obs.Meter.now () -. t0 }

let strict_gaps pat =
  let n = Pattern.n pat in
  let gaps = ref 0 in
  for i = 0 to n - 1 do
    for x = 1 to Pattern.last_index pat i do
      let zr = Chains.zpath_from_interval pat (i, x) in
      let cr = Chains.causal_from_interval pat (i, x) in
      for j = 0 to n - 1 do
        if
          j <> i
          && zr.Chains.earliest.(j) < max_int
          && not (cr.Chains.earliest.(j) <= zr.Chains.earliest.(j))
        then incr gaps
      done
    done
  done;
  !gaps

let online_tdv_consistent pat =
  let tdv = Tdv.compute pat in
  let ok = ref true in
  Pattern.iter_ckpts pat (fun c ->
      match c.Ptypes.tdv with
      | None -> ()
      | Some online -> if online <> Tdv.at tdv (c.Ptypes.owner, c.Ptypes.index) then ok := false);
  !ok
