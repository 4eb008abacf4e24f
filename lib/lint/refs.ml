(* Cross-unit value references over the whole cmt set: the index
   behind U1.

   Every path is spelled from its compilation unit down, with dune's
   wrapped-library mangling split apart ([Rdt_dist__Vclock.join] and
   [Rdt_dist.Vclock.join] are both "Rdt_dist.Vclock.join").  Module
   aliases a unit binds ([module W = Codec.Writer], [let module W = ...
   in]) are followed before recording; an alias is not itself a use.

   Two kinds of reference:
   - a [Texp_ident] names one value;
   - a module used whole — [include M], a first-class [(module M)], a
     functor argument, a coercion [module X : S = M] — names every
     value under [M].  [open M] is not a use. *)

type t = {
  values : (string, string list) Hashtbl.t;  (** dotted value path -> referencing sources *)
  wholes : (string, string list) Hashtbl.t;  (** dotted module path -> referencing sources *)
  units : (string, string * Typedtree.signature) Hashtbl.t;
      (** implementation source -> (dotted unit path, signature) for units with an [.mli] *)
}

(* [Dune__exe__Main] -> [Dune; exe; Main]; [Rdt_pattern__] -> [Rdt_pattern] *)
let split_mangled name =
  let n = String.length name in
  let rec go acc start i =
    if i + 1 >= n then List.rev (String.sub name start (n - start) :: acc)
    else if name.[i] = '_' && name.[i + 1] = '_' then
      go (String.sub name start (i - start) :: acc) (i + 2) (i + 2)
    else go acc start (i + 1)
  in
  go [] 0 0 |> List.filter (fun c -> c <> "")

let add tbl key source =
  let prev = Option.value (Hashtbl.find_opt tbl key) ~default:[] in
  if not (List.mem source prev) then Hashtbl.replace tbl key (source :: prev)

let rec components ~locals (p : Path.t) =
  match p with
  | Pident id -> (
      match Hashtbl.find_opt locals (Ident.unique_name id) with
      | Some c -> Some c
      | None -> if Ident.persistent id then Some (split_mangled (Ident.name id)) else None)
  | Pdot (p, s) -> Option.map (fun c -> c @ [ s ]) (components ~locals p)
  | Papply _ | Pextra_ty _ -> None

let alias_target (me : Typedtree.module_expr) =
  match me.mod_desc with Tmod_ident (p, _) -> Some p | _ -> None

(* every reference one unit makes *)
let scan t ~source (str : Typedtree.structure) =
  let locals = Hashtbl.create 16 in
  let resolve p = Option.map (String.concat ".") (components ~locals p) in
  let bind_alias id me =
    match (id, Option.bind (alias_target me) (components ~locals)) with
    | Some id, Some c ->
        Hashtbl.replace locals (Ident.unique_name id) c;
        true
    | _ -> false
  in
  let open Tast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun it e ->
          match e.exp_desc with
          | Texp_ident (p, _, _) -> Option.iter (fun k -> add t.values k source) (resolve p)
          | Texp_letmodule (id, _, _, me, body) when bind_alias id me -> it.expr it body
          | _ -> default_iterator.expr it e);
      module_binding =
        (fun it mb -> if not (bind_alias mb.mb_id mb.mb_expr) then default_iterator.module_binding it mb);
      module_expr =
        (fun it me ->
          match me.mod_desc with
          | Tmod_ident (p, _) -> Option.iter (fun k -> add t.wholes k source) (resolve p)
          | _ -> default_iterator.module_expr it me);
      open_declaration =
        (fun it od ->
          match od.open_expr.mod_desc with
          | Tmod_ident _ -> ()
          | _ -> default_iterator.open_declaration it od);
    }
  in
  it.structure it str

let build (units : Loader.unit_info list) =
  let t = { values = Hashtbl.create 4096; wholes = Hashtbl.create 256; units = Hashtbl.create 256 } in
  List.iter
    (fun (u : Loader.unit_info) ->
      Option.iter
        (fun sg -> Hashtbl.replace t.units u.source (String.concat "." (split_mangled u.modname), sg))
        u.interface;
      scan t ~source:u.source u.structure)
    units;
  t

let interface t ~source = Hashtbl.find_opt t.units source

(* Sources referencing the dotted value [name]: by name, or by using
   whole a module it sits in. *)
let referrers t name =
  let comps = String.split_on_char '.' name in
  let wholes =
    List.concat
      (List.init (List.length comps - 1) (fun i ->
           let pre = String.concat "." (List.filteri (fun j _ -> j <= i) comps) in
           Option.value (Hashtbl.find_opt t.wholes pre) ~default:[]))
  in
  List.sort_uniq String.compare
    (Option.value (Hashtbl.find_opt t.values name) ~default:[] @ wholes)
