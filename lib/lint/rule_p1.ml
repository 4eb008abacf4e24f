(* P1 — generic comparison in library code.

   [=], [<>], [<], [>], [<=], [>=] and [compare] are compiled to machine
   comparisons only where the compiler sees an immediate type at the use
   site.  At a type variable they call the runtime's generic comparison
   ([caml_equal], [caml_greaterthan], [compare_val]), which inspects
   both values' tags.  [min] and [max] are plain functions over
   [compare]: generic at every type, so on ints use [Int.min]/[Int.max].
   An [.mli] that promises [int array] does not change any of this: the
   implementation is compiled before and apart from its interface, so an
   unannotated parameter stays a type variable in the code.

   The instantiation is read off the ident's own type, as D2 does, so a
   comparison passed on unapplied ([List.sort compare]) is caught too.
   Only [Stdlib]'s own functions are meant: a local [compare] is not.
   Library code only ([lib/]), and the fixture tree that tests the rule
   (the repo-wide lint excludes it); a site that must stay generic is
   allowlisted with its reason. *)

let scope = [ "lib/"; "test/lint/fixtures/" ]

let generic = [ "="; "<>"; "<"; ">"; "<="; ">="; "compare"; "min"; "max" ]

let check (ctx : Rule.ctx) structure =
  let applies = List.exists (fun p -> String.starts_with ~prefix:p ctx.file) scope in
  if applies then
    Scan.iter_expressions structure (fun e ->
        match e.Typedtree.exp_desc with
        | Typedtree.Texp_ident (Path.Pdot (Path.Pident m, op), _, _)
          when String.equal (Ident.name m) "Stdlib" && List.exists (String.equal op) generic
          -> (
            match Option.map Types.get_desc (Scan.first_param e.Typedtree.exp_type) with
            | Some (Types.Tvar _ | Types.Tunivar _) ->
                ctx.report ~rule:"P1" ~loc:e.Typedtree.exp_loc
                  (Printf.sprintf
                     "polymorphic %s at an unresolved type variable compiles to a generic \
                      comparison; annotate the operands' type in the .ml%s"
                     op
                     (if op = "min" || op = "max" then " or use Int." ^ op else ""))
            | _ -> ())
        | _ -> ())

let rule =
  {
    Rule.id = "P1";
    doc = "no polymorphic comparison, min or max at an unresolved type variable in lib/";
    check;
  }
