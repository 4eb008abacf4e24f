(* Coordinated checkpointing vs communication-induced checkpointing.

   Runs the same workload twice: once under Chandy-Lamport coordinated
   snapshots (control messages, FIFO channels, consistent cuts by
   construction) and once under the BHMR CIC protocol (no control
   messages, piggybacked data, RDT).  Verifies the textbook facts on the
   coordinated side — every cut is consistent and the recorded channel
   states are exactly the in-transit messages of the cut — and prints the
   two cost profiles side by side.

   Run with:  dune exec examples/coordinated_snapshot.exe *)

module C = Rdt_coordinated.Coordinated

let () =
  let n = 6 and seed = 11 and max_messages = 900 in

  (* --- coordinated --- *)
  let env = Rdt_workloads.Registry.find_exn "random" in
  let snap = C.run { (C.default_config C.Chandy_lamport env) with C.n; seed; max_messages } in
  Format.printf "Chandy-Lamport: %d snapshots, %d markers, mean latency %.0f time units@."
    snap.metrics.rounds_completed snap.metrics.control_messages snap.metrics.mean_latency;
  List.iter
    (fun (s : C.round) ->
      assert (Rdt_pattern.Consistency.consistent_global snap.pattern s.cut);
      let in_transit = Rdt_recovery.Message_log.in_transit snap.pattern ~line:s.cut in
      assert (List.sort compare s.channel_state = List.sort compare in_transit))
    snap.rounds;
  Format.printf "every cut is consistent; channel states = in-transit messages. ✓@.";
  (match snap.rounds with
  | s :: _ ->
      Format.printf "first cut: {%s}, %d message(s) in its channels@."
        (String.concat "; "
           (Array.to_list (Array.mapi (fun i x -> Printf.sprintf "C(%d,%d)" i x) s.cut)))
        (List.length s.channel_state)
  | [] -> ());

  (* --- communication-induced --- *)
  let protocol = Rdt_core.Registry.find_exn "bhmr" in
  let cic =
    Rdt_core.Runtime.run
      {
        (Rdt_core.Runtime.default_config (Rdt_workloads.Registry.find_exn "random") protocol) with
        Rdt_core.Runtime.n;
        seed;
        max_messages;
      }
  in
  assert (Rdt_core.Checker.run cic.pattern).rdt;
  Format.printf
    "@.BHMR: %d basic + %d forced checkpoints, 0 control messages, %d piggybacked bits/message@."
    cic.metrics.basic cic.metrics.forced cic.metrics.payload_bits_per_msg;
  Format.printf
    "RDT verified: any checkpoint names its minimum consistent global checkpoint for free.@.";
  Format.printf
    "@.The trade: coordination pays %d control messages per snapshot and blocks on@."
    (C.markers_per_snapshot ~n);
  Format.printf
    "marker floods; CIC pays piggyback bytes and forced checkpoints, but adds no@.";
  Format.printf "messages and never synchronises.@."
