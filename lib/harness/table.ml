type t = { header : string list; mutable lines : string list list (* reversed *) }

let create ~header = { header; lines = [] }

let add_row t row =
  if List.length row <> List.length t.header then
    invalid_arg "Table.add_row: row width mismatch";
  t.lines <- row :: t.lines

let header t = t.header

let rows t = List.rev t.lines

let render t =
  let rows = rows t in
  let widths = Array.of_list (List.map String.length t.header) in
  List.iter (List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c))) rows;
  let buf = Buffer.create 256 in
  let pad i c =
    let w = widths.(i) in
    if i = 0 then Printf.sprintf "%-*s" w c else Printf.sprintf "%*s" w c
  in
  let emit_row r =
    Buffer.add_string buf
      (String.concat "  " (List.mapi pad r));
    Buffer.add_char buf '\n'
  in
  let rule () =
    Buffer.add_string buf
      (String.concat "--"
         (Array.to_list (Array.map (fun w -> String.make w '-') widths)));
    Buffer.add_char buf '\n'
  in
  emit_row t.header;
  rule ();
  List.iter emit_row rows;
  Buffer.contents buf

let print t = print_string (render t)

let cell_f x = Printf.sprintf "%.3f" x

let cell_pct x = Printf.sprintf "%.1f%%" (100.0 *. x)
