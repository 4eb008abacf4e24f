type unit_info = {
  cmt_path : string;
  source : string;  (** as recorded by the compiler, relative to the workspace root *)
  modname : string;
  structure : Typedtree.structure;
  interface : Typedtree.signature option;
}

let excluded ~excludes path = List.exists (fun p -> String.starts_with ~prefix:p path) excludes

let find_cmts ~excludes paths =
  let rec walk acc path =
    if excluded ~excludes path then acc
    else
      match Sys.is_directory path with
      | exception Sys_error _ -> acc
      | true ->
          let entries = Sys.readdir path in
          Array.sort String.compare entries;
          Array.fold_left (fun acc e -> walk acc (Filename.concat path e)) acc entries
      | false -> if Filename.check_suffix path ".cmt" then path :: acc else acc
  in
  List.fold_left walk [] paths |> List.sort_uniq String.compare

let read path =
  match Cmt_format.read_cmt path with
  | exception e -> Error (Printf.sprintf "%s: cannot read cmt: %s" path (Printexc.to_string e))
  | infos ->
      let source = Option.value infos.Cmt_format.cmt_sourcefile ~default:path in
      Ok (infos, source)

(* the unit's [.cmti], which dune writes next to its [.cmt] *)
let load_interface cmt_path =
  let cmti = Filename.remove_extension cmt_path ^ ".cmti" in
  if not (Sys.file_exists cmti) then Ok None
  else
    Result.map
      (fun (infos, _) ->
        match infos.Cmt_format.cmt_annots with Cmt_format.Interface sg -> Some sg | _ -> None)
      (read cmti)

let load cmt_path =
  Result.bind (read cmt_path) (fun (infos, source) ->
      match infos.Cmt_format.cmt_annots with
      | Cmt_format.Implementation structure ->
          (* dune-generated library alias modules ([lib__.ml-gen]) carry no
             user code *)
          if Filename.check_suffix source ".ml-gen" then Ok None
          else
            Result.map
              (fun interface ->
                Some
                  {
                    cmt_path;
                    source;
                    modname = infos.Cmt_format.cmt_modname;
                    structure;
                    interface;
                  })
              (load_interface cmt_path)
      | _ -> Ok None)
