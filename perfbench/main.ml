(* perfbench: the repository's end-to-end benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1 --rdtsim PATH

   W is simulate, watch, serve-ingest or serve-query.  Every input is
   generated from N; each workload repeats a fixed-size repetition for
   about S seconds and checks every output against an oracle.  With
   --trace 0 it prints the end-to-end metrics, with --trace 1 the
   per-layer metrics of one traced pass.  The last line of standard
   output is one JSON object; a failed correctness gate exits 1 without
   it.  perfbench/run.sh builds everything from source and calls this. *)

open Perfbench

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let rdtsim = ref "" and size = ref "full" in
  let host = ref "" and stats = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W simulate | watch | serve-ingest | serve-query");
      ("--seed", Arg.Set_int seed, "N workload seed (the only input)");
      ("--seconds", Arg.Set_int seconds, "S measured time per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer pass");
      ("--rdtsim", Arg.Set_string rdtsim, "PATH the rdtsim binary the serve workloads start");
      ("--size", Arg.Set_string size, "full|tiny input sizes (tiny: the self-test)");
      ("--wrong-oracle", Arg.Set Report.wrong_oracle, " expect the opposite verdict (self-test)");
      ("--host-daemon", Arg.Set_string host, "SOCKET serve on SOCKET, timing every step");
      ("--stats", Arg.Set_string stats, "FILE where --host-daemon writes its step timings");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1 --rdtsim PATH";
  if !host <> "" then (
    Serve_load.host ~socket:!host ~stats:!stats;
    exit 0);
  let usage msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  let kind =
    match !workload with
    | "simulate" -> `Simulate
    | "watch" -> `Watch
    | "serve-ingest" -> `Ingest
    | "serve-query" -> `Query
    | w -> usage (Printf.sprintf "unknown workload %S" w)
  in
  let size =
    match !size with "full" -> Inputs.full | "tiny" -> Inputs.tiny | s -> usage ("unknown size " ^ s)
  in
  if !seconds < 1 then usage "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then usage "--trace must be 0 or 1";
  if (kind = `Ingest || kind = `Query || !trace = 1) && not (Sys.file_exists !rdtsim) then
    usage "--rdtsim must name the rdtsim binary";
  (* a terminated run still stops the daemons it started (at_exit) *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 143))) [ Sys.sigterm; Sys.sigint ];
  let seed = !seed and seconds = float_of_int !seconds and rdtsim = !rdtsim in
  let dir = Inputs.scratch_dir () in
  match
    if !trace = 0 then
      match kind with
      | `Simulate -> Simulate.run size ~seed ~seconds
      | `Watch -> Watch.run size ~seed ~seconds ~dir
      | `Ingest -> Serve_load.run_ingest size ~seed ~seconds ~rdtsim ~dir
      | `Query -> Serve_load.run_query size ~seed ~seconds ~rdtsim ~dir
    else begin
      let tally = Stats.tally () in
      let spans_file =
        Filename.concat Inputs.scratch_root (Printf.sprintf "spans-%s-%d.jsonl" !workload seed)
      in
      let metrics = Layers.run kind size ~seed ~rdtsim ~dir ~spans_file tally in
      { Report.metrics; extra = []; tally }
    end
  with
  | outcome ->
      Report.print
        ~title:(Printf.sprintf "%s seed %d (%s)" !workload seed
                  (if !trace = 0 then "end-to-end" else "traced layer pass"))
        outcome
  | exception Report.Gate msg ->
      Printf.eprintf "perfbench: %s: correctness gate failed: %s\n%!" !workload msg;
      exit 1
