(* U1 — exported but unreferenced.

   Every [val] of a unit's [.mli] (submodule signatures included) must
   be referenced by another compilation unit of the linted set; a unit
   using its own export is no reason to export it.  A reference from a
   unit under a directory named [test] only counts as a test reference
   for units outside that directory: a library value only tests reach
   gets its own message, since the deliberate test-facing API (oracles,
   fault hooks, probes) is allowlisted line by line.  Findings sit at
   the [val] in the [.mli]. *)

(* "test/" for "test/test_core.ml", "perfbench/test/" for its tests *)
let test_dir source =
  let rec go acc best = function
    | [] | [ _ ] -> best
    | c :: rest ->
        let acc = acc ^ c ^ "/" in
        go acc (if c = "test" then Some acc else best) rest
  in
  go "" None (String.split_on_char '/' source)

let is_test_of ~unit_source referrer =
  match test_dir referrer with
  | Some d -> not (String.starts_with ~prefix:d unit_source)
  | None -> false

let rec vals prefix (sg : Typedtree.signature) =
  List.concat_map
    (fun (item : Typedtree.signature_item) ->
      match item.sig_desc with
      | Tsig_value vd -> [ (prefix @ [ Ident.name vd.val_id ], vd.val_loc) ]
      | Tsig_module md -> submodule prefix md
      | Tsig_recmodule mds -> List.concat_map (submodule prefix) mds
      | _ -> [])
    sg.sig_items

and submodule prefix (md : Typedtree.module_declaration) =
  match (md.md_id, md.md_type.mty_desc) with
  | Some id, Tmty_signature sg -> vals (prefix @ [ Ident.name id ]) sg
  | _ -> []

let check (ctx : Rule.ctx) _structure =
  match Refs.interface ctx.refs ~source:ctx.file with
  | None -> ()
  | Some (unit_path, sg) ->
      List.iter
        (fun (path, loc) ->
          let name = String.concat "." path in
          let others =
            List.filter
              (fun s -> not (String.equal s ctx.file))
              (Refs.referrers ctx.refs (unit_path ^ "." ^ name))
          in
          let report msg = ctx.report ~rule:"U1" ~loc msg in
          if others = [] then
            report
              (Printf.sprintf
                 "'%s' is exported but no other unit references it: delete it, or drop it \
                  from the .mli if its own unit uses it"
                 name)
          else if List.for_all (is_test_of ~unit_source:ctx.file) others then
            report
              (Printf.sprintf
                 "'%s' is exported but only tests reference it (%s): delete it with those \
                  tests, or allowlist it as deliberate test-facing API"
                 name (List.hd others)))
        (vals [] sg)

let rule =
  {
    Rule.id = "U1";
    doc = "every exported value is referenced by another unit; test-only uses reported apart";
    check;
  }
