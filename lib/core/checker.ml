module Pattern = Rdt_pattern.Pattern
module Rgraph = Rdt_pattern.Rgraph
module Tdv = Rdt_pattern.Tdv
module Chains = Rdt_pattern.Chains
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
   is RDT iff that dependency is trackable everywhere: TDV_{j,y}.(i) >= x*
   for i <> j, and x* <= y for i = j (a same-process R-path backwards in
   time — C_{k,z} ~> C_{k,z-1} — is never trackable, Section 4.1.2).
   Dependencies that do not exist are never checked: x* = -1. *)
let check_with ~algo ~trackable pat =
  let g = Rgraph.build pat in
  let n = Pattern.n pat in
  let violations = ref [] in
  let count = ref 0 in
  let checked = ref 0 in
  for j = 0 to n - 1 do
    for y = 0 to Pattern.last_index pat j do
      let c = (j, y) in
      Rgraph.iter_max_reaching g c ~f:(fun i x_star ->
          incr checked;
          if not (trackable (i, x_star) c) then begin
            incr count;
            if !count <= max_reported then
              violations :=
                (* no TDV witness at this level: the trackability oracle
                   is abstract; the rgraph algo fills the entry in
                   afterwards *)
                { from_ckpt = (i, x_star); to_ckpt = c; tracked = None } :: !violations
          end)
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

let run_rgraph ?tdv pat =
  meter "checker.rgraph_tdv" "checker.dependencies" @@ fun () ->
  let tdv = match tdv with Some t -> t | None -> Tdv.compute pat in
  let report = check_with ~algo:`Rgraph ~trackable:(fun a b -> Tdv.trackable tdv a b) pat in
  let violations =
    List.map
      (fun v ->
        let i, _ = v.from_ckpt in
        { v with tracked = Some (Tdv.at tdv v.to_ckpt).(i) })
      report.violations
  in
  { report with violations }

let run_chains pat =
  meter "checker.chains" "checker.dependencies" @@ fun () ->
  check_with ~algo:`Chains ~trackable:(fun a b -> Chains.trackable pat a b) pat

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

let run ?(algo = `Rgraph) ?tdv pat =
  let t0 = Rdt_obs.Meter.now () in
  let r =
    match algo with
    | `Rgraph -> run_rgraph ?tdv pat
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
