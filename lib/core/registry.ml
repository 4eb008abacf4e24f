let all : Protocol.t list =
  [
    (module Cbr);
    (module Nras);
    (module Cas);
    (module Fdi);
    (module Fdas);
    Bhmr.v2;
    Bhmr.v1;
    Bhmr.full;
    (module Bcs);
    (module No_cic);
  ]

let rdt_protocols = List.filter Protocol.ensures_rdt all

let tdv_protocols : Protocol.t list =
  [ (module Fdi); (module Fdas); Bhmr.v2; Bhmr.v1; Bhmr.full ]

let find name = List.find_opt (fun p -> Protocol.name p = name) all

let find_exn name =
  match find name with
  | Some p -> p
  | None ->
      invalid_arg
        (Printf.sprintf "unknown protocol %S (valid: %s)" name
           (String.concat ", " (List.map Protocol.name all)))
