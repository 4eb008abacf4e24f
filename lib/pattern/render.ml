let max_events = 200

let label = function
  | Types.Ckpt x -> Printf.sprintf "C%d" x
  | Types.Send id -> Printf.sprintf "s%d" id
  | Types.Recv id -> Printf.sprintf "r%d" id
  | Types.Internal -> "."

let ascii pat =
  let n = Pattern.n pat in
  let total = ref 0 in
  for i = 0 to n - 1 do
    total := !total + Array.length (Pattern.events pat i)
  done;
  let total = !total in
  if total > max_events then
    Error (Printf.sprintf "pattern too large to draw (%d events > %d)" total max_events)
  else begin
    let cells = Array.make_matrix n total "" in
    let col = ref 0 in
    Pattern.iter_in_order pat (fun i _pos ev ->
        cells.(i).(!col) <- label ev;
        incr col);
    let widths =
      Array.init total (fun col ->
          let w = ref 1 in
          for i = 0 to n - 1 do
            w := max !w (String.length cells.(i).(col))
          done;
          !w)
    in
    let buf = Buffer.create 1024 in
    for i = 0 to n - 1 do
      Buffer.add_string buf (Printf.sprintf "P%-2d " i);
      for col = 0 to total - 1 do
        let c = if cells.(i).(col) = "" then "-" else cells.(i).(col) in
        let pad = widths.(col) - String.length c in
        Buffer.add_string buf c;
        Buffer.add_string buf (String.make (pad + 1) (if cells.(i).(col) = "" then '-' else ' '))
      done;
      Buffer.add_char buf '\n'
    done;
    Buffer.add_string buf "messages:\n";
    Array.iter
      (fun (m : Types.message) ->
        Buffer.add_string buf
          (Printf.sprintf "  m%-3d P%d I(%d) -> P%d I(%d)\n" m.Types.id m.Types.src
             m.Types.send_interval m.Types.dst m.Types.recv_interval))
      (Pattern.messages pat);
    Ok (Buffer.contents buf)
  end
