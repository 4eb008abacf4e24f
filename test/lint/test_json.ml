(* rdtlint --json round-trip: every line of the JSON output must parse,
   carry exactly the five fields, and rebuild — in order — the very
   lines the plain-text run printed.  Usage:

     test_json PLAIN.out JSON.out

   where both files come from the same fixture lint (see dune). *)

module Json = Rdt_obs.Trace.Json

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("test_json: " ^ m); exit 1) fmt

let str name line j =
  match Json.str_f j name with Ok s -> s | Error e -> fail "%s in: %s" e line

let int name line j =
  match Json.int_f j name with Ok n -> n | Error e -> fail "%s in: %s" e line

let () =
  let plain_path, json_path =
    match Sys.argv with
    | [| _; a; b |] -> (a, b)
    | _ -> fail "usage: test_json PLAIN.out JSON.out"
  in
  let plain = read_lines plain_path in
  let json = read_lines json_path in
  if List.length plain <> List.length json then
    fail "line counts differ: %d plain vs %d json" (List.length plain) (List.length json);
  if plain = [] then fail "empty outputs: the fixture lint found nothing";
  List.iter2
    (fun p jline ->
      let j =
        match Json.parse jline with
        | Ok j -> j
        | Error e -> fail "unparseable JSON line (%s): %s" e jline
      in
      (match j with
      | Json.Obj fields ->
          let names = List.map fst fields in
          if names <> [ "file"; "line"; "col"; "rule"; "msg" ] then
            fail "unexpected fields [%s] in: %s" (String.concat "; " names) jline
      | _ -> fail "not a JSON object: %s" jline);
      let rebuilt =
        Printf.sprintf "%s:%d:%d [%s] %s" (str "file" jline j) (int "line" jline j)
          (int "col" jline j) (str "rule" jline j) (str "msg" jline j)
      in
      if not (String.equal rebuilt p) then
        fail "round-trip mismatch:\n  plain: %s\n  json : %s" p rebuilt)
    plain json;
  Printf.printf "test_json: %d findings round-tripped\n" (List.length plain)
