(* D2 — polymorphic comparison at dangerous types.

   Polymorphic =/compare/Hashtbl.hash are flagged when instantiated at
   Pattern.t (Pattern.equal is the one place that decides pattern
   equality), Rgraph.t (mutable graph internals), or
   any type whose structure contains an arrow (compare on closures
   raises at runtime).  The instantiation is read off the ident's own
   type, so both direct applications and higher-order uses (e.g. passing
   [compare] to a sort) are caught.

   Structural-only type walk: abbreviations and abstract types are not
   expanded, so a record that hides a Pattern.t behind an abstract type
   is a documented false negative. *)

let poly_compare = [ "="; "<>"; "compare"; "Hashtbl.hash" ]
let membership = [ "List.mem"; "List.assoc"; "List.assoc_opt"; "List.mem_assoc"; "Array.mem" ]
let banned_types = [ "Pattern.t"; "Rgraph.t" ]

let check (ctx : Rule.ctx) structure =
  Scan.iter_expressions structure (fun e ->
      match e.Typedtree.exp_desc with
      | Typedtree.Texp_ident (path, _, _) -> (
          let n = Scan.normalize_path path in
          let is_compare = List.exists (String.equal n) poly_compare in
          let is_membership = Scan.matches_any n membership in
          if is_compare || is_membership then
            match Scan.first_param e.Typedtree.exp_type with
            | None -> ()
            | Some arg_ty -> (
                let loc = e.Typedtree.exp_loc in
                match Scan.type_mentions ~targets:banned_types arg_ty with
                | Some t ->
                    ctx.report ~rule:"D2" ~loc
                      (Printf.sprintf
                         "polymorphic %s instantiated at a type involving %s; use that \
                          module's explicit equal/compare"
                         n t)
                | None ->
                    if is_compare && Scan.type_has_arrow arg_ty then
                      ctx.report ~rule:"D2" ~loc
                        (Printf.sprintf
                           "polymorphic %s at a type containing functions: raises \
                            Invalid_argument at runtime on closures"
                           n)))
      | _ -> ())

let rule =
  {
    Rule.id = "D2";
    doc = "no polymorphic =/compare/hash at Pattern.t, Rgraph.t or function-carrying types";
    check;
  }
