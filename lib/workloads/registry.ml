let all =
  [
    ("random", "uniform random point-to-point traffic", Random_env.env);
    ("group", "overlapping group communication", Group_env.make ());
    ("client-server", "chain of servers driven by an external client", Client_server.env);
    ("ring", "tokens circulating on a ring", Ring_env.env);
    ("prodcons", "producers feeding consumers with acknowledgements", Prodcons_env.env);
    ("master-worker", "master scattering tasks, workers replying", Master_worker.env);
    ("stencil", "ring-neighbour exchange in self-clocking phases", Stencil_env.env);
  ]

let find name = List.find_map (fun (n, _, env) -> if n = name then Some env else None) all

let names = List.map (fun (n, _, _) -> n) all

let find_exn name =
  match find name with
  | Some env -> env
  | None ->
      invalid_arg
        (Printf.sprintf "unknown environment %S (valid: %s)" name (String.concat ", " names))
