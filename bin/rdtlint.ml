(* rdtlint — typed-AST lint over the repo's own cmt files.

   Run from the dune context root (dune actions already are), pointing
   at source trees whose .objs directories hold the cmts:

     rdtlint --allowlist .rdtlint lib test

   Exit 0: clean.  Exit 1: findings.  Exit 2: configuration or load
   error (bad allowlist, unreadable cmt, nothing to lint). *)

let usage = "rdtlint [options] PATH..."

let () =
  let only = ref [] in
  let skip = ref [] in
  let allowlist_file = ref None in
  let excludes = ref [] in
  let list_rules = ref false in
  let json = ref false in
  let strict_allowlist = ref false in
  let paths = ref [] in
  let split s = String.split_on_char ',' s |> List.map String.trim in
  let spec =
    [
      ( "--only",
        Arg.String (fun s -> only := !only @ split s),
        "RULE  run only this rule (repeatable, comma-separable)" );
      ( "--skip",
        Arg.String (fun s -> skip := !skip @ split s),
        "RULE  drop this rule from the run (repeatable, comma-separable)" );
      ( "--allowlist",
        Arg.String (fun s -> allowlist_file := Some s),
        "FILE  allowlist file (RULE path[:LINE] per line)" );
      ( "--strict-allowlist",
        Arg.Set strict_allowlist,
        " report allowlist entries that suppressed nothing as STALE findings" );
      ("--json", Arg.Set json, " one JSON object per finding, same order as the plain output");
      ( "--exclude",
        Arg.String (fun s -> excludes := s :: !excludes),
        "DIR  path prefix to skip (repeatable)" );
      ("--list-rules", Arg.Set list_rules, " list rule ids and exit");
    ]
  in
  Arg.parse spec (fun p -> paths := p :: !paths) usage;
  if !list_rules then begin
    List.iter
      (fun (r : Rdt_lint.Rule.t) -> Printf.printf "%-4s %s\n" r.id r.doc)
      Rdt_lint.Rules.all;
    exit 0
  end;
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("rdtlint: " ^ m); exit 2) fmt in
  let paths = List.rev !paths in
  if paths = [] then fail "no paths given (try: rdtlint lib test)";
  let resolve id =
    match Rdt_lint.Rules.find id with
    | Some r -> r
    | None -> fail "unknown rule id %S (see --list-rules)" id
  in
  let rules =
    match List.map resolve !only with
    | [] -> Rdt_lint.Rules.all
    | picked ->
        List.filter
          (fun (r : Rdt_lint.Rule.t) ->
            List.exists (fun (o : Rdt_lint.Rule.t) -> String.equal o.id r.id) picked)
          Rdt_lint.Rules.all
  in
  let rules =
    let dropped = List.map resolve !skip in
    List.filter
      (fun (r : Rdt_lint.Rule.t) ->
        not (List.exists (fun (s : Rdt_lint.Rule.t) -> String.equal s.id r.id) dropped))
      rules
  in
  if rules = [] then fail "the --only/--skip combination leaves no rule to run";
  let allowlist =
    match !allowlist_file with
    | None -> Rdt_lint.Allowlist.empty
    | Some f -> (
        match Rdt_lint.Allowlist.load f with Ok a -> a | Error e -> fail "%s" e)
  in
  let r =
    Rdt_lint.Driver.run ~rules ~allowlist ~excludes:(List.rev !excludes)
      ~strict_allowlist:!strict_allowlist paths
  in
  List.iter (fun e -> prerr_endline ("rdtlint: " ^ e)) r.Rdt_lint.Driver.errors;
  if r.Rdt_lint.Driver.errors <> [] then exit 2;
  if r.Rdt_lint.Driver.units = 0 then
    fail "no implementation cmts found under %s (build first: dune build @all)"
      (String.concat " " paths);
  let render = if !json then Rdt_lint.Finding.to_json else Rdt_lint.Finding.to_string in
  List.iter (fun f -> print_endline (render f)) r.Rdt_lint.Driver.findings;
  if r.Rdt_lint.Driver.findings <> [] then exit 1
