(* Crash-matrix suite for the durable checker state.

   The recovery invariant under test: for EVERY crash point (each
   fsync / rename / torn-write site the durable layer announces to
   Crashpoint, hit in order) x snapshot interval x workload, killing the
   session at exactly that instant, recovering in the same directory and
   resuming the stream yields an engine whose summary, violations and
   first-violation latch are identical to an uninterrupted run's — which
   in turn agrees with the offline R-graph checker.  Recovery must also
   leave the directory clean (no *.tmp residue).

   On top of the exhaustive matrix: deliberate corruption (flipped CRC
   bytes in the newest snapshot, all snapshots, torn WAL tails, damaged
   wal-0) must degrade down the generation chain — older snapshot, then
   full-WAL replay, then the typed Corrupt error — and never produce a
   wrong verdict. *)

module Runtime = Rdt_core.Runtime
module Registry = Rdt_core.Registry
module Checker = Rdt_core.Checker
module Trace = Rdt_obs.Trace
module Online = Rdt_check.Online
module Codec = Rdt_obs.Codec
module Crashpoint = Rdt_durable.Crashpoint
module Io = Rdt_durable.Io
module Snapshot = Rdt_durable.Snapshot
module Wal = Rdt_durable.Wal
module Session = Rdt_durable.Session

let check = Alcotest.(check bool)

let qt = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Scratch directories (no ambient randomness: pid + counter)          *)
(* ------------------------------------------------------------------ *)

let scratch_counter = ref 0

(* The crash matrix runs hundreds of full write-fsync-recover cycles;
   on a disk-backed temp dir the fsyncs dominate the suite's wall clock
   by two orders of magnitude.  The crashes are simulated (an exception,
   not a kill), so tmpfs loses none of the semantics — prefer it. *)
let scratch_base =
  if Sys.file_exists "/dev/shm" && Sys.is_directory "/dev/shm" then "/dev/shm"
  else Filename.get_temp_dir_name ()

let scratch () =
  incr scratch_counter;
  Filename.concat scratch_base
    (Printf.sprintf "rdt-test-durable-%d-%d" (Unix.getpid ()) !scratch_counter)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

(* force the WAL tail to disk, through the checker-session surface *)
let sync s = Rdt_check.Session.sync (Session.checker_session s)

let with_dir f =
  let dir = scratch () in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let no_tmp_residue dir =
  Sys.readdir dir |> Array.for_all (fun f -> not (Filename.check_suffix f ".tmp"))

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let trace_of ~envname ~seed ~messages ~n protocol =
  let tr = Trace.ring ~capacity:100_000 in
  let env = Rdt_workloads.Registry.find_exn envname in
  let r =
    Runtime.run
      { (Runtime.default_config env (Registry.find_exn protocol)) with
        Runtime.n;
        seed;
        max_messages = messages;
        trace = tr;
      }
  in
  (Trace.events tr, r.Runtime.pattern)

type expected = {
  summary : Online.summary;
  violations : Online.violation list;
  n : int;
}

let uninterrupted events =
  match Online.trace_process_count events with
  | Error e -> Alcotest.fail e
  | Ok n -> (
      match Online.check_trace events with
      | Error e -> Alcotest.fail e
      | Ok t -> { summary = Online.summary t; violations = Online.violations t; n })

let config interval = { Session.snapshot_every = interval }

let feed_from s events =
  let skip = Online.events_seen (Session.engine s) in
  List.iteri (fun i ev -> if i >= skip then Session.observe s ev) events

let assert_equal_state label exp engine =
  if Online.summary engine <> exp.summary then
    Alcotest.failf "%s: recovered summary %s, uninterrupted %s" label
      (Format.asprintf "%a" Online.pp_summary (Online.summary engine))
      (Format.asprintf "%a" Online.pp_summary exp.summary);
  check (label ^ ": violations equal") true (Online.violations engine = exp.violations);
  check (label ^ ": first-violation latch equal") true
    (Online.first_violation engine = exp.summary.Online.first_violation)

(* Run the whole stream durably with no crash; returns the crash-site
   hit count of the complete run (the matrix bound). *)
let dry_run ~dir ~interval ~exp events =
  Crashpoint.reset ();
  let s, info = Session.open_ ~config:(config interval) ~dir ~n:exp.n ~track_open:true () in
  check "fresh directory" true (info = None);
  feed_from s events;
  Session.close s;
  assert_equal_state "uninterrupted durable run" exp (Session.engine s);
  Crashpoint.hits ()

(* Kill at the [k]th crash-site hit, then recover-and-resume — possibly
   through a second kill at the same global count if the armed hit lands
   in the recovery's own writes. *)
let crash_at ~dir ~interval ~exp events k =
  rm_rf dir;
  Crashpoint.reset ();
  Crashpoint.arm ~at:k;
  let crashed = ref false in
  (try
     let s, _ = Session.open_ ~config:(config interval) ~dir ~n:exp.n ~track_open:true () in
     match feed_from s events with
     | () -> Session.close s
     | exception Crashpoint.Crash _ ->
         crashed := true;
         Session.abort s
   with Crashpoint.Crash _ -> crashed := true);
  Crashpoint.disarm ();
  if not !crashed then Alcotest.failf "site %d never hit" k;
  let s, _info = Session.open_ ~config:(config interval) ~dir ~n:exp.n ~track_open:true () in
  check "resume point within the stream" true
    (Online.events_seen (Session.engine s) <= List.length events);
  feed_from s events;
  Session.close s;
  assert_equal_state (Printf.sprintf "crash at site %d" k) exp (Session.engine s);
  check (Printf.sprintf "site %d: no tmp residue" k) true (no_tmp_residue dir)

let matrix_case ~envname ~protocol ~seed ~messages ~n ~intervals () =
  let events, pat = trace_of ~envname ~seed ~messages ~n protocol in
  let exp = uninterrupted events in
  (* the stream verdict must agree with the offline R-graph oracle on
     the finished pattern *)
  check "uninterrupted = offline R-graph oracle" true
    ((Checker.run ~algo:`Rgraph pat).Checker.rdt = exp.summary.Online.rdt);
  List.iter
    (fun interval ->
      with_dir (fun dir ->
          let sites = dry_run ~dir ~interval ~exp events in
          check "the run crosses crash sites" true (sites > 0);
          for k = 1 to sites do
            crash_at ~dir ~interval ~exp events k
          done;
          Crashpoint.reset ()))
    intervals

(* Exhaustive on every site for the two cheaper workloads ... *)
let test_matrix_random = matrix_case ~envname:"random" ~protocol:"bhmr" ~seed:11 ~messages:40 ~n:4 ~intervals:[ 1; 7; 64 ]

let test_matrix_group = matrix_case ~envname:"group" ~protocol:"bhmr" ~seed:3 ~messages:40 ~n:4 ~intervals:[ 7; 64 ]

let test_matrix_client_server =
  matrix_case ~envname:"client-server" ~protocol:"none" ~seed:5 ~messages:40 ~n:4
    ~intervals:[ 1; 64 ]

(* ... and sampled by QCheck over (workload, interval, site) for bigger
   streams, where exhausting every site would be O(sites^2). *)
let qcheck_crash_matrix =
  let events_tbl = Hashtbl.create 8 in
  let events_for envname protocol seed =
    let key = (envname, protocol, seed) in
    match Hashtbl.find_opt events_tbl key with
    | Some v -> v
    | None ->
        let events, _ = trace_of ~envname ~seed ~messages:80 ~n:5 protocol in
        let v = (events, uninterrupted events) in
        Hashtbl.add events_tbl key v;
        v
  in
  let gen =
    QCheck.Gen.(
      triple
        (oneofl [ ("random", "bhmr", 21); ("group", "bhmr", 22); ("client-server", "fdas", 23) ])
        (oneofl [ 1; 7; 64 ])
        (int_range 1 5000))
  in
  QCheck.Test.make ~count:40 ~name:"recovered = uninterrupted at random crash sites"
    (QCheck.make gen) (fun ((envname, protocol, seed), interval, site_raw) ->
      let events, exp = events_for envname protocol seed in
      with_dir (fun dir ->
          let sites = dry_run ~dir ~interval ~exp events in
          let k = 1 + (site_raw mod sites) in
          crash_at ~dir ~interval ~exp events k;
          Crashpoint.reset ();
          true))

(* ------------------------------------------------------------------ *)
(* The durability contract                                             *)
(* ------------------------------------------------------------------ *)

(* The WAL's kernel hand-off: [Wal.append] writes the pending buffer out
   once it holds this many bytes of framed records (DESIGN.md §
   Durability). *)
let handoff = 4096

let open_session ~dir ~interval exp =
  fst (Session.open_ ~config:(config interval) ~dir ~n:exp.n ~track_open:true ())

let feed_prefix s events k = List.iteri (fun i ev -> if i < k then Session.observe s ev) events

(* Observe [k] events, sync, then the rest, and close; returns the crash
   sites hit up to the sync's return. *)
let synced_run ~dir ~interval ~exp events k =
  let s = open_session ~dir ~interval exp in
  match
    feed_prefix s events k;
    sync s;
    let at_sync = Crashpoint.hits () in
    feed_from s events;
    Session.close s;
    at_sync
  with
  | at_sync -> at_sync
  | exception (Crashpoint.Crash _ as e) ->
      Session.abort s;
      raise e

(* A [sync] that returned is a promise: a crash at any later site, in
   the stream, a snapshot install or the close, recovers at least the
   events observed before it. *)
let test_sync_survives_later_crashes () =
  let events, _ = trace_of ~envname:"random" ~seed:12 ~messages:60 ~n:4 "bhmr" in
  let exp = uninterrupted events in
  let total = List.length events in
  List.iter
    (fun interval ->
      List.iter
        (fun k ->
          with_dir (fun dir ->
              Crashpoint.reset ();
              let at_sync = synced_run ~dir ~interval ~exp events k in
              let sites = Crashpoint.hits () in
              for site = at_sync + 1 to sites do
                rm_rf dir;
                Crashpoint.reset ();
                Crashpoint.arm ~at:site;
                (match synced_run ~dir ~interval ~exp events k with
                | _ -> Alcotest.failf "interval %d, sync at %d: site %d never hit" interval k site
                | exception Crashpoint.Crash _ -> ());
                Crashpoint.disarm ();
                let s = open_session ~dir ~interval exp in
                let kept = Online.events_seen (Session.engine s) in
                if kept < k then
                  Alcotest.failf "interval %d, sync at %d, crash at site %d: recovered %d events"
                    interval k site kept;
                feed_from s events;
                Session.close s;
                assert_equal_state
                  (Printf.sprintf "interval %d, sync at %d, crash at site %d" interval k site)
                  exp (Session.engine s)
              done;
              Crashpoint.reset ()))
        [ 1; total / 3; 2 * total / 3; total - 1 ])
    [ 7; 64; total + 1 ]

(* A process kill ([Session.abort]: nothing pending is written) between
   sync points loses only a tail of the stream, and that tail's framed
   records total less than the hand-off. *)
let test_kill_loses_under_handoff () =
  let events, _ = trace_of ~envname:"random" ~seed:13 ~messages:300 ~n:4 "bhmr" in
  let exp = uninterrupted events in
  let total = List.length events in
  let sizes = Array.of_list (List.map (Wal.add_record (Codec.Writer.create ())) events) in
  check "the trace spans several hand-offs" true (Array.fold_left ( + ) 0 sizes > 3 * handoff);
  List.iter
    (fun interval ->
      let observed = ref 1 in
      while !observed <= total do
        let j = !observed in
        with_dir (fun dir ->
            let s = open_session ~dir ~interval exp in
            feed_prefix s events j;
            Session.abort s;
            let s = open_session ~dir ~interval exp in
            let kept = Online.events_seen (Session.engine s) in
            let lost = ref 0 in
            for i = kept to j - 1 do
              lost := !lost + sizes.(i)
            done;
            let label = Printf.sprintf "interval %d, killed after %d events" interval j in
            check (label ^ ": recovered a prefix") true (kept <= j);
            if !lost >= handoff then
              Alcotest.failf "%s: recovered %d, lost %d bytes of records" label kept !lost;
            feed_from s events;
            Session.close s;
            assert_equal_state label exp (Session.engine s));
        observed := !observed + 29
      done)
    [ 7; 64; total + 1 ]

(* ------------------------------------------------------------------ *)
(* Deliberate corruption                                               *)
(* ------------------------------------------------------------------ *)

let flip_byte path pos =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let b = Bytes.create len in
  really_input ic b 0 len;
  close_in ic;
  let pos = pos mod len in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x41));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let durable_run ~dir ~interval events exp =
  let s, _ = Session.open_ ~config:(config interval) ~dir ~n:exp.n ~track_open:true () in
  feed_from s events;
  Session.close s;
  s

let recover_and_check ~dir events exp =
  let s, info = Session.open_ ~config:(config 7) ~dir ~n:exp.n ~track_open:true () in
  feed_from s events;
  Session.close s;
  assert_equal_state "after corruption" exp (Session.engine s);
  check "no tmp residue" true (no_tmp_residue dir);
  info

let test_corrupt_newest_snapshot () =
  let events, _ = trace_of ~envname:"random" ~seed:31 ~messages:60 ~n:4 "bhmr" in
  let exp = uninterrupted events in
  with_dir (fun dir ->
      ignore (durable_run ~dir ~interval:7 events exp);
      let gens = Snapshot.generations ~dir in
      check "several generations kept" true (List.length gens >= 2);
      let newest = List.hd gens in
      (* flip a payload byte: the stored CRC no longer matches *)
      flip_byte (Snapshot.path ~dir ~gen:newest) 40;
      match recover_and_check ~dir events exp with
      | None -> Alcotest.fail "no recovery happened"
      | Some info ->
          check "degraded below the newest generation" true
            (match info.Session.restored_gen with Some g -> g < newest | None -> true);
          check "the corrupt generation is reported" true
            (List.mem_assoc newest info.Session.skipped);
          check "the corrupt file is disposed of" true
            (not (List.mem newest (Snapshot.generations ~dir))))

let test_corrupt_all_snapshots_full_replay () =
  let events, _ = trace_of ~envname:"random" ~seed:32 ~messages:60 ~n:4 "bhmr" in
  let exp = uninterrupted events in
  with_dir (fun dir ->
      ignore (durable_run ~dir ~interval:7 events exp);
      List.iter (fun g -> flip_byte (Snapshot.path ~dir ~gen:g) 25) (Snapshot.generations ~dir);
      match recover_and_check ~dir events exp with
      | None -> Alcotest.fail "no recovery happened"
      | Some info ->
          check "fell back to a full WAL replay" true (info.Session.restored_gen = None);
          check "replayed the whole durable prefix" true
            (info.Session.replayed_events > 0))

let test_corrupt_beyond_recovery () =
  let events, _ = trace_of ~envname:"random" ~seed:33 ~messages:40 ~n:4 "bhmr" in
  let exp = uninterrupted events in
  with_dir (fun dir ->
      ignore (durable_run ~dir ~interval:7 events exp);
      List.iter (fun g -> flip_byte (Snapshot.path ~dir ~gen:g) 25) (Snapshot.generations ~dir);
      (* damage wal-0's header record too: no chain left *)
      flip_byte (Wal.path ~dir ~gen:0) 6;
      match Session.open_ ~config:(config 7) ~dir ~n:exp.n ~track_open:true () with
      | _ -> Alcotest.fail "corrupt-beyond-recovery state was accepted"
      | exception Io.Error (Io.Corrupt _) -> ())

let test_torn_wal_tail () =
  let events, _ = trace_of ~envname:"random" ~seed:34 ~messages:60 ~n:4 "bhmr" in
  let exp = uninterrupted events in
  with_dir (fun dir ->
      ignore (durable_run ~dir ~interval:1000 events exp);
      (* a torn frame: length prefix promising more than is there *)
      let path = Wal.path ~dir ~gen:0 in
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc "\xff\x00\x00\x00half-a-record";
      close_out oc;
      (match Wal.read ~dir ~gen:0 with
      | Error e -> Alcotest.fail e
      | Ok rr -> check "tear detected" true (rr.Wal.torn <> None));
      ignore (recover_and_check ~dir events exp);
      (* the reopen truncated the tear away: a third open is clean *)
      match Wal.read ~dir ~gen:0 with
      | Error e -> Alcotest.fail e
      | Ok rr -> check "tail truncated on reopen" true (rr.Wal.torn = None))

(* An event whose WAL record would exceed [Wal.max_frame] used to be
   appended anyway, and a reader then took its frame for a torn tail and
   cut the segment there.  It is refused before the engine sees it:
   nothing in memory or on disk changes, and the stream goes on. *)
let test_oversized_event_refused () =
  let events, _ = trace_of ~envname:"random" ~seed:34 ~messages:60 ~n:4 "bhmr" in
  let exp = uninterrupted events in
  let meta protocol = Trace.Meta { n = 4; protocol; env = "random"; seed = 0; mode = "run" } in
  let huge = meta (String.make Wal.max_frame 'x') in
  check "1 MiB string: oversized" true (Wal.oversized huge <> None);
  (* this Meta's payload is its protocol string plus 17 bytes *)
  check "at the limit: fits" true
    (Wal.oversized (meta (String.make (Wal.max_frame - 17) 'x')) = None);
  check "one byte over" true
    (Wal.oversized (meta (String.make (Wal.max_frame - 16) 'x')) = Some (Wal.max_frame + 1));
  let files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.map (fun f ->
           (f, In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))
  in
  with_dir (fun dir ->
      Crashpoint.reset ();
      let s, _ = Session.open_ ~config:(config 50) ~dir ~n:exp.n ~track_open:true () in
      let half = List.length events / 2 in
      List.iteri (fun i ev -> if i < half then Session.observe s ev) events;
      sync s;
      let summary = Online.summary (Session.engine s) and on_disk = files dir in
      (match Session.observe s huge with
      | () -> Alcotest.fail "an oversized event was accepted"
      | exception Online.Inconsistent _ -> ());
      sync s;
      check "summary unchanged" true (Online.summary (Session.engine s) = summary);
      check "on-disk state unchanged" true (files dir = on_disk);
      feed_from s events;
      Session.close s;
      assert_equal_state "stream after the refusal" exp (Session.engine s);
      List.iter
        (fun gen ->
          match Wal.read ~dir ~gen with
          | Error e -> Alcotest.fail e
          | Ok rr -> check "no torn tail" true (rr.Wal.torn = None))
        (Wal.segments ~dir);
      ignore (recover_and_check ~dir events exp))

(* ------------------------------------------------------------------ *)
(* Machine crashes inside an install                                   *)
(* ------------------------------------------------------------------ *)

(* A snapshot install makes its two new directory entries, wal-<g+1> and
   the renamed snap-<g+1>.bin, durable with one directory fsync, and the
   new segment's header only with that segment's first fsync.  A machine
   crash before those calls return can lose either entry or the header,
   in any combination, where a process kill (the crash matrix) loses
   none of them.  Each state is built by editing the files of a clean
   install, which is the synced prefix: the old segment was fsynced
   first. *)

let interval = 7

let installs = 4

let synced_prefix events k = List.filteri (fun i _ -> i < k) events

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path data = Out_channel.with_open_bin path (fun oc -> output_string oc data)

(* Observe exactly [installs * interval] events, so the last one
   installs generation [installs], then kill the session.  Returns the
   generation that install's retention deleted, with its bytes. *)
let clean_install ~dir ~exp events =
  let s = open_session ~dir ~interval exp in
  let expired = installs - 2 in
  feed_prefix s events ((installs * interval) - 1);
  let bytes = read_file (Snapshot.path ~dir ~gen:expired) in
  feed_from s (synced_prefix events (installs * interval));
  check "the last event installed a generation" true (Session.generation s = installs);
  check "and deleted the expired one" true (not (Sys.file_exists (Snapshot.path ~dir ~gen:expired)));
  Session.abort s;
  (expired, bytes)

(* The rename is lost only if the crash came before the install's
   directory fsync returned, so before its retention ran, too. *)
let lose_rename ~dir ~gen (expired, bytes) =
  Sys.rename (Snapshot.path ~dir ~gen) (Snapshot.path ~dir ~gen ^ ".tmp");
  write_file (Snapshot.path ~dir ~gen:expired) bytes

let lose_header ~dir ~gen = Out_channel.with_open_bin (Wal.path ~dir ~gen) ignore

let lose_segment ~dir ~gen = Sys.remove (Wal.path ~dir ~gen)

(* Recover to the synced prefix's state, resume the stream and close:
   the final state is the uninterrupted run's. *)
let recovers_synced_prefix ~label ~dir ~expect_gen events exp =
  let k = installs * interval in
  let s, info = Session.open_ ~config:(config interval) ~dir ~n:exp.n ~track_open:true () in
  (match info with
  | None -> Alcotest.failf "%s: no recovery" label
  | Some info ->
      check (label ^ ": recovered from the expected generation") true
        (info.Session.restored_gen = Some expect_gen));
  Alcotest.(check int) (label ^ ": resume point") k (Online.events_seen (Session.engine s));
  assert_equal_state (label ^ ": synced prefix")
    (uninterrupted (synced_prefix events k))
    (Session.engine s);
  feed_from s events;
  Session.close s;
  assert_equal_state label exp (Session.engine s);
  check (label ^ ": no tmp residue") true (no_tmp_residue dir)

let test_machine_crash_states () =
  let events, _ = trace_of ~envname:"random" ~seed:35 ~messages:60 ~n:4 "bhmr" in
  let exp = uninterrupted events in
  check "the stream runs past the install" true (List.length events > 2 * installs * interval);
  let g = installs in
  List.iter
    (fun (label, lose, expect_gen) ->
      with_dir (fun dir ->
          let expired = clean_install ~dir ~exp events in
          lose dir expired;
          recovers_synced_prefix ~label ~dir ~expect_gen events exp))
    [
      ("rename lost", (fun dir expired -> lose_rename ~dir ~gen:g expired), g - 1);
      ("header lost", (fun dir _ -> lose_header ~dir ~gen:g), g);
      ( "rename and header lost",
        (fun dir expired ->
          lose_rename ~dir ~gen:g expired;
          lose_header ~dir ~gen:g),
        g - 1 );
      ("segment entry lost", (fun dir _ -> lose_segment ~dir ~gen:g), g);
      ( "segment entry and rename lost",
        (fun dir expired ->
          lose_segment ~dir ~gen:g;
          lose_rename ~dir ~gen:g expired),
        g - 1 );
    ]

(* Retention keeps the newest two generations it knows of: a directory
   holding three (an unlink a machine crash undid) opens down to two,
   and a generation whose rename was lost is skipped, not counted, so
   the next install still leaves two. *)
let test_retention_after_machine_crash () =
  let events, _ = trace_of ~envname:"random" ~seed:36 ~messages:60 ~n:4 "bhmr" in
  let exp = uninterrupted events in
  let gens dir = Snapshot.generations ~dir in
  with_dir (fun dir ->
      let expired, bytes = clean_install ~dir ~exp events in
      let g = installs in
      check "two generations kept" true (gens dir = [ g; g - 1 ]);
      write_file (Snapshot.path ~dir ~gen:expired) bytes;
      check "three generations on disk" true (gens dir = [ g; g - 1; g - 2 ]);
      let s, info = Session.open_ ~config:(config interval) ~dir ~n:exp.n ~track_open:true () in
      check "recovered from the newest" true
        (match info with Some i -> i.Session.restored_gen = Some g | None -> false);
      check "opened down to two" true (gens dir = [ g; g - 1 ]);
      Session.close s);
  with_dir (fun dir ->
      lose_rename ~dir ~gen:installs (clean_install ~dir ~exp events);
      let s, _ = Session.open_ ~config:(config interval) ~dir ~n:exp.n ~track_open:true () in
      check "the lost generation is not on disk" true
        (gens dir = [ installs - 1; installs - 2 ]);
      feed_from s (synced_prefix events ((installs + 1) * interval));
      check "the next install skips it and keeps two" true
        (gens dir = [ installs + 1; installs - 1 ]);
      feed_from s events;
      Session.close s;
      assert_equal_state "after a skipped generation" exp (Session.engine s);
      check "two kept at the end" true (List.length (gens dir) = 2))

(* The durability calls ([Io]'s [io.fsync] counter: file and directory
   fsyncs alike) of each sync point. *)
let test_durability_calls () =
  let events, _ = trace_of ~envname:"random" ~seed:37 ~messages:60 ~n:4 "bhmr" in
  let exp = uninterrupted events in
  let calls () =
    Option.value ~default:0
      (List.assoc_opt "io.fsync" (Rdt_obs.Meter.counters Rdt_obs.Meter.default))
  in
  let counted f =
    let c0 = calls () in
    f ();
    calls () - c0
  in
  let every = 20 in
  with_dir (fun dir ->
      let opened = ref None in
      Alcotest.(check int) "open of a fresh directory" 0
        (counted (fun () ->
             opened := Some (Session.open_ ~config:(config every) ~dir ~n:exp.n ~track_open:true ())));
      let s = fst (Option.get !opened) in
      let upto k = feed_from s (synced_prefix events k) in
      upto 5;
      Alcotest.(check int) "first sync of segment 0: file and directory" 2
        (counted (fun () -> sync s));
      upto 10;
      Alcotest.(check int) "later sync" 1 (counted (fun () -> sync s));
      Alcotest.(check int) "sync with nothing appended" 0 (counted (fun () -> sync s));
      upto 15;
      Alcotest.(check int) "later sync" 1 (counted (fun () -> sync s));
      upto (every - 1);
      Alcotest.(check int) "an install: segment, snapshot, directory" 3
        (counted (fun () -> upto every));
      check "installed" true (Session.generation s = 1);
      upto (every + 3);
      Alcotest.(check int) "first sync of an installed segment" 1 (counted (fun () -> sync s));
      upto ((2 * every) - 1);
      Alcotest.(check int) "the next install" 3 (counted (fun () -> upto (2 * every)));
      upto ((2 * every) + 2);
      Alcotest.(check int) "close" 1 (counted (fun () -> Session.close s)));
  (* with no sync before it, a fresh segment's first sync point is the
     install, whose segment fsync then covers the directory too *)
  with_dir (fun dir ->
      let s = fst (Session.open_ ~config:(config every) ~dir ~n:exp.n ~track_open:true ()) in
      feed_from s (synced_prefix events (every - 1));
      Alcotest.(check int) "first install of a fresh directory" 4
        (counted (fun () -> feed_from s (synced_prefix events every)));
      Session.close s)

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let test_codec_roundtrip () =
  let w = Codec.Writer.create () in
  let ints = [ 0; 1; 127; 128; 255; 16384; 1 lsl 30; max_int ] in
  List.iter (Codec.Writer.varint w) ints;
  Codec.Writer.opt_varint w None;
  Codec.Writer.opt_varint w (Some 0);
  Codec.Writer.opt_varint w (Some 4096);
  Codec.Writer.u32 w 0;
  Codec.Writer.u32 w 0xFFFFFFFF;
  Codec.Writer.u32 w 0xDEADBEEF;
  Codec.Writer.string_ w "";
  Codec.Writer.string_ w "frame payload";
  let r = Codec.Reader.of_string (Codec.Writer.contents w) in
  List.iter (fun v -> Alcotest.(check int) "varint" v (Codec.Reader.varint r)) ints;
  check "opt none" true (Codec.Reader.opt_varint r = None);
  check "opt zero" true (Codec.Reader.opt_varint r = Some 0);
  check "opt big" true (Codec.Reader.opt_varint r = Some 4096);
  Alcotest.(check int) "u32 zero" 0 (Codec.Reader.u32 r);
  Alcotest.(check int) "u32 max" 0xFFFFFFFF (Codec.Reader.u32 r);
  Alcotest.(check int) "u32" 0xDEADBEEF (Codec.Reader.u32 r);
  check "empty string" true (Codec.Reader.string_ r = "");
  check "string" true (Codec.Reader.string_ r = "frame payload");
  Alcotest.(check int) "fully consumed" 0 (Codec.Reader.remaining r);
  check "negative varint rejected" true
    (match Codec.Writer.varint (Codec.Writer.create ()) (-1) with
    | exception Invalid_argument _ -> true
    | () -> false);
  (* IEEE CRC-32 known answer ("123456789" -> 0xCBF43926) *)
  Alcotest.(check int) "crc32 vector" 0xCBF43926 (Codec.crc32 "123456789")

(* Slicing-by-8 against the byte-at-a-time reference: every head offset
   0-7 and length 0-64 (all tail lengths, zero to eight whole words), and
   one 1 MiB string. *)
let test_crc32_slicing () =
  let ref_crc = Rdt_test_helpers.Naive.crc32_sub in
  Alcotest.(check int) "reference check value" 0xCBF43926 (ref_crc "123456789" ~pos:0 ~len:9);
  let rng = Rdt_dist.Rng.create 30 in
  let big = String.init (1 lsl 20) (fun _ -> Char.chr (Rdt_dist.Rng.int rng 256)) in
  for pos = 0 to 7 do
    for len = 0 to 64 do
      if Codec.crc32_sub big ~pos ~len <> ref_crc big ~pos ~len then
        Alcotest.failf "crc32_sub differs at pos %d len %d" pos len
    done
  done;
  Alcotest.(check int) "1 MiB" (ref_crc big ~pos:0 ~len:(String.length big)) (Codec.crc32 big);
  Alcotest.(check int) "1 MiB from offset 3"
    (ref_crc big ~pos:3 ~len:(String.length big - 5))
    (Codec.crc32_sub big ~pos:3 ~len:(String.length big - 5))

let test_snapshot_codec () =
  let events, _ = trace_of ~envname:"group" ~seed:41 ~messages:50 ~n:4 "bhmr" in
  let exp = uninterrupted events in
  let engine =
    let t = Online.create ~n:exp.n () in
    List.iter (Online.observe t) events;
    t
  in
  let e = Online.export engine in
  let img = Snapshot.encode e in
  (match Snapshot.decode img with
  | Error why -> Alcotest.fail why
  | Ok e' ->
      check "decode inverts encode" true (e' = e);
      check "restored answers identically" true
        (Online.summary (Online.restore e') = exp.summary));
  check "deterministic encoding" true (Snapshot.encode (Online.export (Online.restore e)) = img);
  (* flipping any sampled byte must yield Error, never a wrong export *)
  String.iteri
    (fun i _ ->
      if i mod 7 = 0 then begin
        let b = Bytes.of_string img in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
        match Snapshot.decode (Bytes.to_string b) with
        | Error _ -> ()
        | Ok e' ->
            if e' <> e then Alcotest.failf "byte %d: corrupt snapshot decoded to a different export" i
      end)
    img

(* A CRC-valid image whose route count is the overlong varint
   ff ff ff ff ff ff ff ff 7f (bit 62 set: -1 once it lands in an OCaml
   int).  Decoding must reject it, not raise from an allocation. *)
let test_overlong_varint () =
  let overlong = "\xff\xff\xff\xff\xff\xff\xff\xff\x7f" in
  check "varint rejects a sign-setting ninth byte" true
    (match Codec.Reader.varint (Codec.Reader.of_string overlong) with
    | exception Codec.Reader.Short _ -> true
    | _ -> false);
  check "varint rejects a tenth byte" true
    (match Codec.Reader.varint (Codec.Reader.of_string "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01") with
    | exception Codec.Reader.Short _ -> true
    | _ -> false);
  check "zigzag reads the same bits as -1's zigzag" true
    (Codec.Reader.zigzag (Codec.Reader.of_string overlong) = min_int);
  let image count_bytes =
    (* version 1, n = 1, track_open, events_seen 0, no violation,
       rebuilds 0, the route count, then nothing *)
    let payload = "\x01\x01\x01\x00\x00\x00" ^ count_bytes in
    let w = Codec.Writer.create () in
    Codec.Writer.string_raw w "RDTSNAP1";
    Codec.Writer.u32 w (String.length payload);
    Codec.Writer.string_raw w payload;
    Codec.Writer.u32 w (Codec.crc32 payload);
    Codec.Writer.contents w
  in
  List.iter
    (fun (label, count_bytes) ->
      match Snapshot.decode (image count_bytes) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s route count decoded" label
      | exception e -> Alcotest.failf "%s route count raised %s" label (Printexc.to_string e))
    [
      ("overlong", overlong);
      ("2^40", "\x80\x80\x80\x80\x80\x80\x40");
      ("max_int", "\xff\xff\xff\xff\xff\xff\xff\xff\x3f");
    ];
  (* the same bound on the WAL's TDV and predicate counts *)
  let ckpt_prefix = "\x04\x00\x02\x01\x00" in
  List.iter
    (fun (label, rest) ->
      match Codec.decode_event (ckpt_prefix ^ rest) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s decoded" label
      | exception e -> Alcotest.failf "%s raised %s" label (Printexc.to_string e))
    [
      ("overlong tdv length", overlong);
      ("huge tdv length", "\x80\x80\x80\x80\x80\x80\x40");
      ("huge preds count", "\x00\x80\x80\x80\x80\x80\x80\x40");
    ]

(* ------------------------------------------------------------------ *)
(* The binary WAL record                                               *)
(* ------------------------------------------------------------------ *)

let event_arb = QCheck.make ~print:Trace.encode Rdt_test_helpers.Gen.trace_event

let payload ev =
  let w = Codec.Writer.create () in
  Codec.encode_event w ev;
  Codec.Writer.contents w

(* decode the payload, its every strict prefix, and the payload with a
   trailing byte: only the first may succeed, and nothing may raise *)
let roundtrips ev =
  let p = payload ev in
  (match Codec.decode_event p with
  | Ok ev' when ev' = ev -> ()
  | Ok _ -> QCheck.Test.fail_reportf "decoded to a different event"
  | Error e -> QCheck.Test.fail_reportf "roundtrip failed: %s" e);
  for len = 0 to String.length p - 1 do
    match Codec.decode_event (String.sub p 0 len) with
    | Error _ -> ()
    | Ok _ -> QCheck.Test.fail_reportf "the %d-byte prefix decoded" len
  done;
  (match Codec.decode_event (p ^ "\x00") with
  | Error _ -> ()
  | Ok _ -> QCheck.Test.fail_reportf "trailing bytes accepted");
  true

let qcheck_event_roundtrip =
  QCheck.Test.make ~count:500 ~name:"binary WAL record roundtrips every event constructor" event_arb
    roundtrips

let qcheck_json_accepted_roundtrip =
  QCheck.Test.make ~count:300 ~name:"every event Trace.decode accepts roundtrips in binary"
    event_arb (fun ev ->
      match Trace.decode (Trace.encode ev) with Ok ev' -> roundtrips ev' | Error _ -> true)

let test_event_records_of_runs () =
  (* every event of real traces (transport, crash runs) roundtrips, and a
     framed record measures what it claims *)
  let events, _ = trace_of ~envname:"group" ~seed:3 ~messages:60 ~n:4 "bhmr" in
  let crash_events =
    (Rdt_fuzz.Exec.run (Rdt_fuzz.Scenario.generate ~seed:5 ())).Rdt_fuzz.Exec.events
  in
  List.iter (fun ev -> ignore (roundtrips ev)) (events @ crash_events);
  let w = Codec.Writer.create () in
  let sizes = List.map (Wal.add_record w) events in
  Alcotest.(check int) "framed sizes add up" (Codec.Writer.length w) (List.fold_left ( + ) 0 sizes);
  check "kinds covered" true
    (List.length (List.sort_uniq compare (List.map Trace.kind_name events)) >= 4)

(* ------------------------------------------------------------------ *)
(* Incremental snapshot image                                          *)
(* ------------------------------------------------------------------ *)

(* Feed [events] into [engine], comparing the cache's image with the
   full encode after every [k]th event. *)
let image_tracks ~label ~k ?(cache = Snapshot.Cache.create ()) engine events =
  let compare_now () =
    let inc = Codec.Writer.contents (Snapshot.Cache.image cache engine) in
    if inc <> Snapshot.encode (Online.export engine) then
      Alcotest.failf "%s: incremental image differs from the full encode after %d events" label
        (Online.events_seen engine)
  in
  compare_now ();
  List.iteri
    (fun i ev ->
      Online.observe engine ev;
      if (i + 1) mod k = 0 then compare_now ())
    events;
  compare_now ();
  cache

let crash_trace seed =
  let tr = Trace.ring ~capacity:200_000 in
  let env = Rdt_workloads.Registry.find_exn "random" in
  ignore
    (Runtime.run
       {
         (Runtime.default_config env (Registry.find_exn "bhmr")) with
         Runtime.n = 5;
         seed;
         max_messages = 250;
         crashes =
           [
             { Runtime.victim = 2; at = 2000; repair_delay = 200 };
             { Runtime.victim = 0; at = 4500; repair_delay = 300 };
           ];
         trace = tr;
       });
  Trace.events tr

let has_rollback = List.exists (function Trace.Rollback _ -> true | _ -> false)

let test_incremental_image () =
  let fuzz_space =
    {
      Rdt_fuzz.Scenario.default_space with
      envs = [ "random"; "group"; "client-server" ];
      crash_prob = 1.0;
    }
  in
  let fuzz =
    List.filter_map
      (fun seed ->
        let sc = Rdt_fuzz.Scenario.generate ~space:fuzz_space ~seed () in
        let r = Rdt_fuzz.Exec.run sc in
        match r.Rdt_fuzz.Exec.events with
        | [] -> None
        | events -> Some (Printf.sprintf "fuzz seed %d" seed, events))
      [ 1; 2; 3; 4; 5; 6 ]
  in
  let crash =
    List.map (fun seed -> (Printf.sprintf "crash-run seed %d" seed, crash_trace seed)) [ 1; 2 ]
  in
  let traces = fuzz @ crash in
  check "some traces roll back" true
    (List.length (List.filter (fun (_, e) -> has_rollback e) traces) >= 3);
  List.iter
    (fun (label, events) ->
      match Online.trace_process_count events with
      | Error e -> Alcotest.fail e
      | Ok n ->
          (* k = 1: every rollback cuts below the cached top *)
          List.iter
            (fun k -> ignore (image_tracks ~label ~k (Online.create ~n ()) events))
            [ 1; 7; 100 ])
    traces

let test_incremental_image_descending_ids () =
  let send msg = Trace.Send { msg; src = 0; dst = 1; time = msg } in
  let deliver msg = Trace.Deliver { msg; src = 0; dst = 1; time = 100 + msg } in
  let ckpt pid index = Trace.Ckpt { pid; index; kind = Basic; time = 0; tdv = None; preds = [] } in
  let events =
    [ send 9; send 7; ckpt 0 1; send 4; deliver 7; deliver 4; ckpt 1 1; send 12; send 10; deliver 9 ]
    @ [ deliver 12; Trace.Undeliverable { msg = 10; src = 0; dst = 1; time = 300 }; send 2; deliver 2 ]
  in
  List.iter
    (fun k -> ignore (image_tracks ~label:"descending ids" ~k (Online.create ~n:2 ()) events))
    [ 1; 2; 5 ]

let test_incremental_image_restored () =
  let events = crash_trace 3 in
  let n = match Online.trace_process_count events with Ok n -> n | Error e -> Alcotest.fail e in
  let half = List.length events / 2 in
  let first = List.filteri (fun i _ -> i < half) events in
  let rest = List.filteri (fun i _ -> i >= half) events in
  let engine = Online.create ~n () in
  let cache = image_tracks ~label:"before restore" ~k:50 engine first in
  let restored = Online.restore (Online.export engine) in
  (* a fresh cache on the restored engine, and the old cache handed a
     different engine: both must start over and stay exact *)
  ignore (image_tracks ~label:"restored, fresh cache" ~k:9 restored rest);
  let restored' = Online.restore (Online.export engine) in
  ignore (image_tracks ~label:"restored, reused cache" ~k:9 ~cache restored' rest);
  check "a copied cache continues independently" true
    (let c = Snapshot.Cache.copy cache in
     Codec.Writer.contents (Snapshot.Cache.image c restored')
     = Snapshot.encode (Online.export restored'))

(* ------------------------------------------------------------------ *)
(* Directories written by the version-1 WAL                            *)
(* ------------------------------------------------------------------ *)

(* test/fixtures/wal_v1: a session directory that the previous release
   (JSON WAL records) wrote with [rdtsim watch --durable state
   --snapshot-every 100] over the first 250 events of trace.jsonl. *)
let fixture = "fixtures/wal_v1"

let copy_file src dst =
  let s = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> output_string oc s)

let copy_fixture dir =
  Unix.mkdir dir 0o755;
  let src = Filename.concat fixture "state" in
  Array.iter (fun f -> copy_file (Filename.concat src f) (Filename.concat dir f)) (Sys.readdir src)

let drop_snapshots dir = List.iter (fun g -> Snapshot.remove ~dir ~gen:g) (Snapshot.generations ~dir)

let fixture_events () =
  match Trace.read_file (Filename.concat fixture "trace.jsonl") with
  | Ok evs -> evs
  | Error e -> Alcotest.fail e

let open_v1 dir = Session.open_ ~config:(config 100) ~dir ~n:4 ~track_open:true ()

(* Open, check the recovery and the resume point, feed the rest, close:
   the final state must be the uninterrupted whole-trace state. *)
let resume_v1 ~label ~dir ~expect_gen ~expect_seen events exp =
  let s, info = open_v1 dir in
  (match info with
  | None -> Alcotest.failf "%s: no recovery" label
  | Some info ->
      check (label ^ ": recovered from the expected generation") true
        (info.Session.restored_gen = expect_gen));
  Alcotest.(check int) (label ^ ": resume point") expect_seen (Online.events_seen (Session.engine s));
  feed_from s events;
  Session.close s;
  assert_equal_state label exp (Session.engine s)

let segment_versions dir =
  List.map
    (fun g -> match Wal.read ~dir ~gen:g with Ok rr -> (g, rr.Wal.version) | Error e -> Alcotest.fail e)
    (Wal.segments ~dir)

let test_v1_fixture () =
  let events = fixture_events () in
  let exp = uninterrupted events in
  let prefix = List.filteri (fun i _ -> i < 250) events in
  let exp_prefix = uninterrupted prefix in
  (* recover only: from the newest snapshot, then by full replay *)
  with_dir (fun dir ->
      copy_fixture dir;
      let s, info = open_v1 dir in
      check "newest snapshot used" true
        (match info with Some i -> i.Session.restored_gen = Some 2 | None -> false);
      Session.close s;
      assert_equal_state "v1, newest snapshot" exp_prefix (Session.engine s));
  with_dir (fun dir ->
      copy_fixture dir;
      drop_snapshots dir;
      let s, _ = open_v1 dir in
      Session.close s;
      assert_equal_state "v1, full replay" exp_prefix (Session.engine s));
  (* resume, drop every snapshot, recover the whole trace by replay *)
  with_dir (fun dir ->
      copy_fixture dir;
      let v1_tail = In_channel.with_open_bin (Wal.path ~dir ~gen:2) In_channel.input_all in
      resume_v1 ~label:"v1 resumed" ~dir ~expect_gen:(Some 2) ~expect_seen:250 events exp;
      check "the v1 segment was not appended to" true
        (In_channel.with_open_bin (Wal.path ~dir ~gen:2) In_channel.input_all = v1_tail);
      check "segments 0-2 stay v1, appends went to v2 segments" true
        (match segment_versions dir with
        | (0, 1) :: (1, 1) :: (2, 1) :: (_ :: _ as later) -> List.for_all (fun (_, v) -> v = 2) later
        | _ -> false);
      drop_snapshots dir;
      resume_v1 ~label:"v1 resumed, then full replay" ~dir ~expect_gen:None
        ~expect_seen:(List.length events) events exp);
  (* resume from a full replay; then again without snapshots *)
  with_dir (fun dir ->
      copy_fixture dir;
      drop_snapshots dir;
      resume_v1 ~label:"v1 replayed and resumed" ~dir ~expect_gen:None ~expect_seen:250 events exp;
      drop_snapshots dir;
      resume_v1 ~label:"v1 replayed, resumed, replayed" ~dir ~expect_gen:None
        ~expect_seen:(List.length events) events exp);
  (* a torn v1 tail is cut away, never appended after *)
  with_dir (fun dir ->
      copy_fixture dir;
      let path = Wal.path ~dir ~gen:2 in
      let intact = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 path (fun oc ->
          output_string oc "\xff\x00\x00\x00half-a-record");
      resume_v1 ~label:"torn v1 tail" ~dir ~expect_gen:(Some 2) ~expect_seen:250 events exp;
      check "the torn v1 tail was truncated" true
        (In_channel.with_open_bin path In_channel.input_all = intact);
      drop_snapshots dir;
      resume_v1 ~label:"torn v1 tail, then full replay" ~dir ~expect_gen:None
        ~expect_seen:(List.length events) events exp)

(* The v1 -> v2 switch is a snapshot install like any other: kill the
   resume of the v1 directory at every crash site, recover, finish, and
   recover once more by full replay across the v1 and v2 segments. *)
let test_v1_fixture_crash_matrix () =
  let events = fixture_events () in
  let exp = uninterrupted events in
  let resume dir =
    let s, _ = open_v1 dir in
    feed_from s events;
    Session.close s;
    Session.engine s
  in
  let sites =
    with_dir (fun dir ->
        copy_fixture dir;
        Crashpoint.reset ();
        ignore (resume dir);
        Crashpoint.hits ())
  in
  check "the resume crosses crash sites" true (sites > 0);
  for k = 1 to sites do
    with_dir (fun dir ->
        copy_fixture dir;
        Crashpoint.reset ();
        Crashpoint.arm ~at:k;
        (try
           let s, _ = open_v1 dir in
           try
             feed_from s events;
             Session.close s
           with Crashpoint.Crash _ -> Session.abort s
         with Crashpoint.Crash _ -> ());
        Crashpoint.disarm ();
        let label = Printf.sprintf "v1 resume killed at site %d" k in
        assert_equal_state label exp (resume dir);
        check (label ^ ": no v2 record in a v1 segment") true
          (List.for_all (fun (g, v) -> v = if g <= 2 then 1 else 2) (segment_versions dir));
        drop_snapshots dir;
        assert_equal_state (label ^ ", then full replay") exp (resume dir))
  done;
  Crashpoint.reset ()

let () =
  Alcotest.run "rdt_durable"
    [
      ( "crash-matrix",
        [
          Alcotest.test_case "random x bhmr, every site x {1,7,64}" `Quick test_matrix_random;
          Alcotest.test_case "group x bhmr, every site x {7,64}" `Quick test_matrix_group;
          Alcotest.test_case "client-server x none, every site x {1,64}" `Quick
            test_matrix_client_server;
          qt qcheck_crash_matrix;
        ] );
      ( "contract",
        [
          Alcotest.test_case "sync survives a crash at every later site x {7,64,none}" `Quick
            test_sync_survives_later_crashes;
          Alcotest.test_case "a kill loses less than 4 KiB of records x {7,64,none}" `Quick
            test_kill_loses_under_handoff;
        ] );
      ( "power-loss",
        [
          Alcotest.test_case "lost rename, header or entry of an install" `Quick
            test_machine_crash_states;
          Alcotest.test_case "two generations kept after three or a skip" `Quick
            test_retention_after_machine_crash;
          Alcotest.test_case "durability calls per sync point and install" `Quick
            test_durability_calls;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "flipped byte in newest snapshot degrades" `Quick
            test_corrupt_newest_snapshot;
          Alcotest.test_case "all snapshots bad: full WAL replay" `Quick
            test_corrupt_all_snapshots_full_replay;
          Alcotest.test_case "beyond recovery: typed Corrupt error" `Quick
            test_corrupt_beyond_recovery;
          Alcotest.test_case "torn WAL tail is truncated" `Quick test_torn_wal_tail;
          Alcotest.test_case "oversized event refused, state unchanged" `Quick
            test_oversized_event_refused;
        ] );
      ( "codec",
        [
          Alcotest.test_case "primitives roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "slicing-by-8 crc32 = byte-at-a-time" `Quick test_crc32_slicing;
          Alcotest.test_case "snapshot image roundtrip and tamper-evidence" `Quick
            test_snapshot_codec;
          Alcotest.test_case "overlong varints and huge counts are errors" `Quick
            test_overlong_varint;
          qt qcheck_event_roundtrip;
          qt qcheck_json_accepted_roundtrip;
          Alcotest.test_case "event records of recorded runs" `Quick test_event_records_of_runs;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "fuzz and crash-run traces, every k events" `Quick
            test_incremental_image;
          Alcotest.test_case "message ids in descending order" `Quick
            test_incremental_image_descending_ids;
          Alcotest.test_case "restored engines and a reused cache" `Quick
            test_incremental_image_restored;
        ] );
      ( "wal-v1",
        [
          Alcotest.test_case "parent-written directory recovers and resumes" `Quick test_v1_fixture;
          Alcotest.test_case "resume killed at every crash site" `Quick test_v1_fixture_crash_matrix;
        ] );
    ]
