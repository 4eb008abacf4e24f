(* Workload inputs.  The seed is the only input: every trace and every
   simulated run is a pure function of it, and each generated trace is
   printed with its event count and MD5 so two runs can be shown to have
   fed identical events. *)

module T = Rdt_obs.Trace

let n = 16

(* Fixed input sizes, by event count, never by duration: the online
   checker's per-event cost grows with history, so a time-boxed stream
   would measure a different input on every commit. *)
type size = {
  sim_messages : int;  (** application messages per simulate run *)
  sim_seeds : int;  (** runs per (protocol, environment) pair *)
  watch_messages : int;  (** the one long recorded trace *)
  ingest_messages : int;  (** per serve-ingest stream (two streams) *)
  query_epochs : int;  (** serve-query runs stitched into one stream *)
  query_epoch_messages : int;  (** messages per stitched run *)
  query_rate : float;  (** serve-query offered load, events/s *)
  setups : int;  (** set-up repetitions behind the [setup_s] median *)
}

let full =
  {
    sim_messages = 400;
    sim_seeds = 20;
    watch_messages = 8000;
    ingest_messages = 5000;
    query_epochs = 48;
    query_epoch_messages = 40;
    query_rate = 2000.;
    setups = 5;
  }

let tiny =
  {
    sim_messages = 60;
    sim_seeds = 2;
    watch_messages = 600;
    ingest_messages = 600;
    query_epochs = 12;
    query_epoch_messages = 10;
    query_rate = 20_000.;
    setups = 1;
  }

type trace = { label : string; events : T.event list; count : int; lines : string list; md5 : string }

let recorded label events =
  let lines = List.map T.encode events in
  let md5 = Digest.to_hex (Digest.string (String.concat "\n" lines)) in
  { label; events; count = List.length events; lines; md5 }

let meta seed = T.Meta { n; protocol = "bhmr"; env = "random"; seed; mode = "perfbench" }

(* The events of one BHMR run in the [random] environment at n = 16, as
   [rdtsim run --trace] records them (without its Meta header). *)
let run_events ~seed ~messages =
  let acc = ref [] in
  let recorder = T.observer (fun ev -> acc := ev :: !acc) in
  let protocol = Rdt_core.Registry.find_exn "bhmr" in
  let env = Rdt_workloads.Registry.find_exn "random" in
  ignore (Rdt_core.Runtime.run (Rdt_core.Runtime.configure ~n ~seed ~messages ~trace:recorder env protocol));
  List.rev !acc

let trace ~seed ~label ~messages =
  let seed = Rdt_dist.Rng.derive_seed seed ("perfbench." ^ label) in
  recorded label (meta seed :: run_events ~seed ~messages)

(* A stream of [epochs] consecutive runs, each starting where the last
   one went quiescent: later runs drop their initial checkpoints and
   continue every process's checkpoint indices, message ids and clock.
   No message is in flight at an epoch boundary, and those are the only
   prefixes whose pattern the daemon can rebuild for a min-gcp/max-gcp
   answer (a single random run is quiescent only at its start and end).
   Recorded TDVs are dropped: each run's vectors are relative to its
   own start.  Returns the trace and the event count at each epoch's
   end. *)
let stitched ~seed ~label ~epochs ~messages =
  let seed = Rdt_dist.Rng.derive_seed seed ("perfbench." ^ label) in
  let last = Array.make n 0 and msg_base = ref 0 and time_base = ref 0 in
  let acc = ref [ meta seed ] and count = ref 1 and ends = ref [] in
  for e = 0 to epochs - 1 do
    let base = Array.copy last and next_msg = ref !msg_base and next_time = ref !time_base in
    let keep ev =
      acc := ev :: !acc;
      incr count
    in
    let msg m = next_msg := max !next_msg (!msg_base + m + 1); !msg_base + m in
    let time t = next_time := max !next_time (!time_base + t); !time_base + t in
    List.iter
      (function
        | T.Ckpt { kind = Rdt_pattern.Types.Initial; _ } when e > 0 -> ()
        | T.Ckpt c ->
            let index = base.(c.pid) + c.index in
            last.(c.pid) <- index;
            keep (T.Ckpt { c with index; time = time c.time; tdv = None })
        | T.Send s -> keep (T.Send { s with msg = msg s.msg; time = time s.time })
        | T.Deliver d -> keep (T.Deliver { d with msg = msg d.msg; time = time d.time })
        | T.Internal i -> keep (T.Internal { i with time = time i.time })
        | ev -> invalid_arg ("Inputs.stitched: unexpected event " ^ T.kind_name ev))
      (run_events ~seed:(Rdt_dist.Rng.derive_seed seed (string_of_int e)) ~messages);
    msg_base := !next_msg;
    time_base := !next_time + 1;
    ends := !count :: !ends
  done;
  (recorded label (List.rev !acc), List.rev !ends)

let describe t = Printf.sprintf "input %s: %d events, md5 %s" t.label t.count t.md5

(* The benchmark's scratch space, inside the checkout it runs from.
   Relative paths keep the daemon's socket path short whatever the
   checkout's location. *)
let scratch_root = ".perfbench"

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let scratch_dir () =
  (try Unix.mkdir scratch_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat scratch_root (string_of_int (Unix.getpid ())) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  at_exit (fun () -> try rm_rf dir with _ -> ());
  dir

let rec du path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left (fun acc f -> acc + du (Filename.concat path f)) 0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size

(* Peak resident set size (VmHWM) of a live process, in MiB. *)
let peak_rss_mb pid =
  let file = Printf.sprintf "/proc/%d/status" pid in
  In_channel.with_open_text file (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ file)
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> go ()
      in
      go ())

(* CPU time of a live process's main thread so far, in seconds, from
   the scheduler's own nanosecond count.  The workloads' processes each
   run one domain on that thread. *)
let cpu_s pid =
  let file = Printf.sprintf "/proc/%d/task/%d/schedstat" pid pid in
  In_channel.with_open_text file (fun ic ->
      match In_channel.input_line ic with
      | Some line -> Scanf.sscanf line "%Ld" (fun ns -> Int64.to_float ns /. 1e9)
      | None -> failwith ("empty " ^ file))

(* Restart the peak-RSS watermark of this process, so set-up garbage and
   earlier repetitions do not count toward the next repetition. *)
let reset_peak_rss () =
  Gc.compact ();
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
