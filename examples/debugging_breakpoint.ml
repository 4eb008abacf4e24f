(* Distributed debugging with causal breakpoints.

   Scenario: a bug manifests at server S_2 of a client-server chain.  To
   inspect the system "at the moment of the bug", a debugger must restore
   a consistent global state that contains S_2's state — including every
   state the buggy state causally depends on, but nothing more.  That
   state is the minimum consistent global checkpoint containing the
   checkpoint that closed the buggy interval; under RDT it is read off the
   checkpoint's dependency vector, with no graph search at debug time.

   Run with:  dune exec examples/debugging_breakpoint.exe *)

let () =
  let env = Rdt_workloads.Client_server.env in
  let protocol = Rdt_core.Registry.find_exn "bhmr" in
  let config =
    {
      (Rdt_core.Runtime.default_config env protocol) with
      Rdt_core.Runtime.n = 6;
      seed = 7;
      max_messages = 700;
    }
  in
  let result = Rdt_core.Runtime.run config in
  let pat = result.pattern in
  Format.printf "computation: %a@." Rdt_pattern.Pattern.pp_summary pat;

  (* The "bug" is observed in the middle of S_2's execution. *)
  let buggy_pid = 2 in
  let buggy_ckpt = (buggy_pid, Rdt_pattern.Pattern.last_index pat buggy_pid / 2) in
  Format.printf "bug observed at %a@." Rdt_pattern.Types.pp_ckpt_id buggy_ckpt;

  match Rdt_recovery.Breakpoint.compute pat buggy_ckpt with
  | None -> failwith "no consistent global checkpoint contains the target (RDT violated?)"
  | Some bp ->
      Format.printf "%a@." Rdt_recovery.Breakpoint.pp bp;
      assert bp.on_the_fly;
      (* RDT also makes the restore order explicit: dependencies first. *)
      let order = Rdt_recovery.Breakpoint.restore_order pat bp in
      Format.printf "restore order: %s@."
        (String.concat " -> "
           (List.map (fun (i, x) -> Printf.sprintf "C(%d,%d)" i x) order));
      (* Sanity: the breakpoint is a consistent global checkpoint and every
         entry is at most the target's own position on its process. *)
      assert (Rdt_pattern.Consistency.consistent_global pat bp.line);
      Format.printf "breakpoint verified consistent.@."
