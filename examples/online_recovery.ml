(* Online crash recovery.

   Unlike examples/recovery_rollback.ml, which analyses a finished run,
   this example injects fail-stop crashes *while the computation runs*:
   at each repair the system takes recovery checkpoints, computes the
   recovery line, rolls every process back (restoring the protocol state
   saved inside each checkpoint), discards the messages of undone sends,
   replays the in-transit ones from the sender logs — and carries on.

   Run with:  dune exec examples/online_recovery.exe *)

module R = Rdt_core.Runtime

let run pname =
  let protocol = Rdt_core.Registry.find_exn pname in
  let env = Rdt_workloads.Registry.find_exn "random" in
  R.run
    (R.configure ~n:6 ~seed:42 ~messages:1500
       ~crashes:
         [
           { R.victim = 2; at = 3000; repair_delay = 250 };
           { R.victim = 5; at = 6000; repair_delay = 250 };
         ]
       env protocol)

let events_undone (r : R.result) =
  List.fold_left (fun a (rc : R.recovery) -> a + rc.events_undone) 0 r.recoveries

let describe pname =
  let r = run pname in
  Format.printf "@.--- %s ---@." pname;
  List.iter
    (fun (rc : R.recovery) ->
      Format.printf
        "crash of P%d at t=%d: rolled back to [%s]; %d events undone, %d messages replayed@."
        rc.crash.victim rc.crash.at
        (String.concat ";" (List.map string_of_int (Array.to_list rc.line)))
        rc.events_undone rc.messages_replayed)
    r.recoveries;
  Format.printf "surviving execution: %d deliveries, %d events undone in total@."
    r.metrics.messages (events_undone r);
  r

let () =
  let bhmr = describe "bhmr" in
  (* the surviving pattern of an RDT protocol is itself RDT: dependency
     tracking survived the rollbacks because each checkpoint carried a
     snapshot of the protocol state *)
  assert (Rdt_core.Checker.run bhmr.pattern).rdt;
  assert (Rdt_core.Checker.online_tdv_consistent bhmr.pattern);
  Format.printf "RDT verified on the surviving execution.@.";

  let none = describe "none" in
  Format.printf "@.verdict: with no protocol the same two crashes undid %dx more work.@."
    (events_undone none / max 1 (events_undone bhmr))
