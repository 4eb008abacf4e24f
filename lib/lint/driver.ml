type result = {
  findings : Finding.t list;  (** sorted by file, line, col, rule *)
  errors : string list;  (** unreadable cmts: a hard failure, not a quiet skip *)
  units : int;  (** implementation units actually linted *)
}

let stale_rule = "STALE"

let run ?(rules = Rules.all) ?(allowlist = Allowlist.empty) ?(excludes = [])
    ?(strict_allowlist = false) paths =
  let cmts = Loader.find_cmts ~excludes paths in
  let errors = ref [] in
  (* pass 1: load every unit, so the callgraph and the reference index
     span the whole cmt set *)
  let units =
    List.filter_map
      (fun cmt ->
        match Loader.load cmt with
        | Error e ->
            errors := e :: !errors;
            None
        | Ok None -> None
        | Ok (Some u) ->
            if Loader.excluded ~excludes u.Loader.source then None else Some u)
      cmts
  in
  let graph =
    Callgraph.build (List.map (fun u -> (u.Loader.source, u.Loader.structure)) units)
  in
  let env = Summary.analyze graph in
  let refs = Refs.build units in
  (* pass 2: the per-unit rule sweep *)
  let findings = ref [] in
  List.iter
    (fun (u : Loader.unit_info) ->
      let report ~rule ~loc msg =
        let f = Finding.of_loc ~rule ~loc msg in
        (* ghost locations have no file; anchor them to the unit *)
        let f =
          if f.Finding.file = "" || f.Finding.file = "_none_" then
            { f with Finding.file = u.Loader.source }
          else f
        in
        if not (Allowlist.allows allowlist ~rule ~file:f.Finding.file ~line:f.Finding.line)
        then findings := f :: !findings
      in
      let ctx = { Rule.file = u.Loader.source; env; refs; report } in
      List.iter (fun (r : Rule.t) -> r.Rule.check ctx u.Loader.structure) rules)
    units;
  if strict_allowlist then
    List.iter
      (fun (e : Allowlist.entry) ->
        findings :=
          {
            Finding.file = allowlist.Allowlist.file;
            line = e.Allowlist.lineno;
            col = 0;
            rule = stale_rule;
            msg =
              Printf.sprintf
                "allowlist entry '%s' suppressed no finding in this run; the code it excused \
                 is gone — remove the entry"
                (Allowlist.describe e);
          }
          :: !findings)
      (Allowlist.stale allowlist ~rules:(List.map (fun (r : Rule.t) -> r.Rule.id) rules));
  {
    findings = List.sort_uniq Finding.compare !findings;
    errors = List.rev !errors;
    units = List.length units;
  }
