(* The durable-session driver: an [Rdt_check.Online] engine whose state
   survives being killed at any instant.

   Layout of a session directory:

     wal-<g>.log    events observed while snapshot generation [g] was
                    the newest installed one (g = 0: since the fresh
                    engine), as binary records.  Segments are never
                    deleted, so a full-WAL replay from generation 0
                    always remains the fallback of last resort.
     snap-<g>.bin   engine image after [base_events g] events; only the
                    newest [keep_snapshots] generations are kept.

   The durability contract (DESIGN.md § Durability): the WAL is fsynced
   at exactly three sync points, a snapshot install, [sync] and [close],
   and never per event.  [Wal.append] hands the pending buffer to the
   kernel at every 4 KiB of records, so a process kill loses less than
   4 KiB of records at the tail, and a machine crash loses at most what
   came after the last sync point, at most [snapshot_every] events.  A
   sync point is one fsync of the active segment; the first one after
   [open_] also fsyncs the directory, unless an install's directory
   fsync has covered the segment's entry by then.  A segment that
   recovery reopens counts the records it keeps as unsynced (a killed
   writer may not have fsynced them), so its first sync point fsyncs
   the segment even with nothing appended since.

   Per event the cost follows what changed, not the history: an event is
   one record framed into the WAL's pending buffer.  A snapshot's
   encoding does too: it encodes only the history entries and routes
   added since the previous one, read by position from the history's
   packed logs ([Snapshot.Cache]), producing the same bytes a full
   encode would.  What stays O(image) on every install is the CRC over
   the whole payload and the write, plus one copy of the cached
   sections into the image buffer.  On perfbench watch's 21k-event
   trace that is 1.45 MB written over 21 installs, against 0.52 MB of
   WAL, and 3 durability calls per install (the first makes 4: its
   segment's first sync point).  Per-section CRCs and an append-only
   image wait for the next snapshot format (ROADMAP item 3).

   Write order at a snapshot install, three durability calls (every
   crash window in between is covered by the recovery scan):

     1. sync the active segment          (events durable before the
                                          snapshot claims to cover them)
     2. Snapshot.write: tmp file, fsync
     3. create wal-<g+1> (header written, not fsynced), switch writers,
        close the old segment, Snapshot.publish (rename), then one
        directory fsync for both new entries
     4. delete the generations past the kept window, from the list the
        session keeps (read from the directory once, at open_)

   A machine crash inside step 3 can lose the rename, the new segment's
   entry or its header (it becomes durable with the segment's first
   fsync), in any combination.  Each is a state recovery already knows:
   a missing snapshot falls back a generation, a header-torn last
   segment is dropped, and a snapshot without its segment gets one.

   Recovery tries, in order: newest snapshot + replay of segments from
   its generation up; each older snapshot likewise; a full replay from
   wal-0; and only when every chain fails raises the typed
   [Io.Error (Corrupt _)].  A chain failure is any of: snapshot CRC /
   decode failure, [Online.Inconsistent] during restore or replay, a
   missing or header-damaged segment in the middle of the chain, or an
   events-seen discontinuity between segments.  Known-bad snapshot
   files are deleted after a successful recovery.

   A directory written by the version-1 WAL format (JSON records) is
   read as is, but its last segment is never appended to: opening it
   truncates that segment's torn tail, if any, and installs a snapshot
   at once, so appends continue in a fresh version-2 segment. *)

module Online = Rdt_check.Online
module Trace = Rdt_obs.Trace
module Meter = Rdt_obs.Meter

type config = { snapshot_every : int }

let default_config = { snapshot_every = 1000 }

(* snapshot generations retained (>= 2: recovery falls back to the older
   one when the newest is torn) *)
let keep_snapshots = 2

type recovery = {
  restored_gen : int option;  (** snapshot used; [None] = full-WAL replay *)
  replayed_events : int;
  skipped : (int * string) list;  (** snapshot generations that failed, newest first *)
  torn : (int * string) list;  (** segments whose tail was cut *)
}

let pp_recovery ppf r =
  (match r.restored_gen with
  | Some g -> Format.fprintf ppf "restored snapshot generation %d" g
  | None -> Format.fprintf ppf "no usable snapshot; full WAL replay");
  Format.fprintf ppf ", replayed %d event%s" r.replayed_events
    (if r.replayed_events = 1 then "" else "s");
  List.iter
    (fun (g, why) -> Format.fprintf ppf "@\nskipped snapshot generation %d: %s" g why)
    r.skipped;
  List.iter
    (fun (g, why) -> Format.fprintf ppf "@\ntruncated torn tail of segment %d: %s" g why)
    r.torn

type t = {
  dir : string;
  config : config;
  meter : Meter.t;
  engine : Online.t;
  cache : Snapshot.Cache.t;
  mutable wal : Wal.writer;
  mutable base_events : int;  (** events covered by the newest snapshot *)
  mutable snaps : int list;  (** snapshot generations on disk, newest first *)
  mutable dir_pending : bool;
      (** the active segment's directory entry may not be durable yet *)
  mutable closed : bool;
}

let engine t = t.engine

let generation t = Wal.gen t.wal

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

(* A recovery chain that cannot proceed; recovery falls back to the next
   older snapshot (and eventually to full replay). *)
exception Chain_failed of string

let clean_tmp dir =
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".tmp" then
        try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir)

(* The newest segment's header can be torn or missing after a crash
   before the segment's first fsync; then none of its events were
   durable either (that fsync makes the header and them durable at once)
   and everything it would cover is still in the previous segment, so
   deleting it is safe.  A damaged header anywhere *else* is real
   corruption and must fail the chains that cross it. *)
let drop_unreadable_last_segment ~dir segs =
  match List.rev segs with
  | [] -> []
  | last :: _ -> (
      match Wal.read ~dir ~gen:last with
      | Ok _ -> segs
      | Error _ ->
          Wal.remove ~dir ~gen:last;
          List.filter (fun g -> g <> last) segs)

(* The segment appends continue into, as recovery read it (its events
   dropped). *)
type last_segment = { lgen : int; lread : Wal.read_result }

(* Replay segments [start_gen, start_gen+1, ...] (all that exist) into
   [engine].  Returns (events replayed, torn notes, the last segment —
   [None] when no segment >= start_gen exists). *)
let replay_chain ~dir ~segs ~start_gen engine =
  let chain = List.filter (fun g -> g >= start_gen) segs in
  let replayed = ref 0 in
  let torn = ref [] in
  let last = ref None in
  List.iteri
    (fun i g ->
      if g <> start_gen + i then
        raise (Chain_failed (Printf.sprintf "WAL segment %d missing" (start_gen + i)));
      match Wal.read ~dir ~gen:g with
      | Error why -> raise (Chain_failed why)
      | Ok rr ->
          if rr.Wal.header.Wal.base_events <> Online.events_seen engine then
            raise
              (Chain_failed
                 (Printf.sprintf "segment %d starts at event %d but engine holds %d" g
                    rr.Wal.header.Wal.base_events (Online.events_seen engine)));
          (try List.iter (Online.observe engine) rr.Wal.events
           with Online.Inconsistent why ->
             raise (Chain_failed (Printf.sprintf "replay of segment %d: %s" g why)));
          replayed := !replayed + List.length rr.Wal.events;
          (match rr.Wal.torn with
          | Some why ->
              if i < List.length chain - 1 then
                (* a tear in the *middle* of the chain means later
                   segments' events sit on top of lost ones *)
                raise (Chain_failed (Printf.sprintf "segment %d torn mid-chain: %s" g why))
              else torn := (g, why) :: !torn
          | None -> ());
          last := Some { lgen = g; lread = { rr with Wal.events = [] } })
    chain;
  (!replayed, List.rev !torn, !last)

(* One candidate chain: restore [snapshot] (None = fresh engine needing
   wal-0's header for its geometry) and replay forward. *)
let try_chain ~dir ~segs snapshot =
  match snapshot with
  | Some gen -> (
      match Snapshot.load ~dir ~gen with
      | Error why -> Error why
      | Ok export -> (
          match Online.restore export with
          | exception Online.Inconsistent why -> Error ("restore: " ^ why)
          | engine -> (
              try
                let replayed, torn, last = replay_chain ~dir ~segs ~start_gen:gen engine in
                Ok (engine, replayed, torn, last, gen)
              with Chain_failed why -> Error why)))
  | None -> (
      (* full replay: wal-0 must exist and its header provides n *)
      if not (List.mem 0 segs) then Error "no WAL segment 0 for a full replay"
      else
        match Wal.read ~dir ~gen:0 with
        | Error why -> Error why
        | Ok rr -> (
            let h = rr.Wal.header in
            let engine = Online.create ~track_open:h.Wal.track_open ~n:h.Wal.n () in
            try
              let replayed, torn, last = replay_chain ~dir ~segs ~start_gen:0 engine in
              Ok (engine, replayed, torn, last, 0)
            with Chain_failed why -> Error why))

let recover ~dir ~segs ~snaps =
  let rec go skipped = function
    | [] -> (
        match try_chain ~dir ~segs None with
        | Ok (engine, replayed, torn, last, base_gen) ->
            ( engine,
              last,
              base_gen,
              { restored_gen = None; replayed_events = replayed; skipped = List.rev skipped; torn }
            )
        | Error why ->
            Io.fail
              (Io.Corrupt
                 (String.concat "; "
                    (List.rev_map (fun (g, w) -> Printf.sprintf "snapshot %d: %s" g w) skipped
                    @ [ "full replay: " ^ why ]))))
    | gen :: older -> (
        match try_chain ~dir ~segs (Some gen) with
        | Ok (engine, replayed, torn, last, base_gen) ->
            ( engine,
              last,
              base_gen,
              {
                restored_gen = Some gen;
                replayed_events = replayed;
                skipped = List.rev skipped;
                torn;
              } )
        | Error why -> go ((gen, why) :: skipped) older)
  in
  let engine, last, base_gen, info = go [] snaps in
  (* dispose of snapshots proven bad — they must not shadow good ones
     on the next recovery *)
  List.iter (fun (g, _) -> Snapshot.remove ~dir ~gen:g) info.skipped;
  (engine, last, base_gen, info)

(* ------------------------------------------------------------------ *)
(* Steady state                                                        *)
(* ------------------------------------------------------------------ *)

(* A segment header; geometry and open-interval tracking come from the
   engine, which holds the one copy of both. *)
let header engine ~gen ~base_events =
  { Wal.gen; base_events; n = Online.n engine; track_open = Online.track_open engine }

(* Every open starts with [dir_pending]: a fresh or recreated segment's
   entry was never made durable, and a reopened one may have been left
   so by a killed process. *)
let make ~dir ~config ~meter ~engine ~wal ~base_events =
  {
    dir;
    config;
    meter;
    engine;
    cache = Snapshot.Cache.create ();
    wal;
    base_events;
    snaps = [];
    dir_pending = true;
    closed = false;
  }

let sync t =
  let bytes = Wal.sync t.wal in
  if bytes > 0 then begin
    Meter.incr t.meter "wal.fsync";
    Meter.add t.meter "wal.bytes" bytes
  end;
  if t.dir_pending then begin
    Io.fsync_dir t.dir;
    t.dir_pending <- false
  end

(* Keep the newest [keep_snapshots] of [gens] (newest first) and delete
   the rest.  The list, not the directory, is the record: a generation
   whose install never completed is absent from it, so the older one
   stays kept. *)
let retain t gens =
  List.iteri (fun i g -> if i >= keep_snapshots then Snapshot.remove ~dir:t.dir ~gen:g) gens;
  t.snaps <- List.filteri (fun i _ -> i < keep_snapshots) gens

let install_snapshot t =
  Meter.time t.meter "durable.snapshot" (fun () ->
      sync t;
      let gen = Wal.gen t.wal + 1 and seen = Online.events_seen t.engine in
      Snapshot.write ~dir:t.dir ~gen (Snapshot.Cache.image t.cache t.engine);
      let old = t.wal in
      t.wal <- Wal.create ~dir:t.dir ~gen ~header:(header t.engine ~gen ~base_events:seen);
      t.base_events <- seen;
      Wal.close old;
      Snapshot.publish ~dir:t.dir ~gen;
      (* one directory fsync for both new entries *)
      Io.fsync_dir t.dir;
      t.dir_pending <- false;
      retain t (gen :: t.snaps))

let observe t ev =
  if t.closed then invalid_arg "Session.observe: closed";
  (match Wal.oversized ev with
  | Some len ->
      raise
        (Online.Inconsistent
           (Printf.sprintf "event record of %d bytes exceeds the WAL frame limit of %d" len
              Wal.max_frame))
  | None -> ());
  Online.observe t.engine ev;
  Wal.append t.wal ev;
  if Online.events_seen t.engine - t.base_events >= t.config.snapshot_every then
    install_snapshot t

let close t =
  if not t.closed then begin
    t.closed <- true;
    sync t;
    Wal.close t.wal
  end

let abort t =
  if not t.closed then begin
    t.closed <- true;
    Wal.abort t.wal
  end

(* ------------------------------------------------------------------ *)
(* Opening                                                             *)
(* ------------------------------------------------------------------ *)

let open_ ?(config = default_config) ?(meter = Meter.default) ~dir ~n ~track_open () =
  if config.snapshot_every < 1 then invalid_arg "Session.open_: snapshot_every < 1";
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  clean_tmp dir;
  (* a directory whose only content was a header-torn newest segment
     (crash during the very first writes) counts as empty: nothing in it
     was ever durable *)
  let segs = drop_unreadable_last_segment ~dir (Wal.segments ~dir) in
  let snaps = Snapshot.generations ~dir in
  if segs = [] && snaps = [] then begin
    let engine = Online.create ~track_open ~n () in
    let wal = Wal.create ~dir ~gen:0 ~header:(header engine ~gen:0 ~base_events:0) in
    (make ~dir ~config ~meter ~engine ~wal ~base_events:0, None)
  end
  else begin
    let engine, last, base_gen, info = recover ~dir ~segs ~snaps in
    if Online.n engine <> n then
      Io.fail
        (Io.Corrupt
           (Printf.sprintf "durable state is for %d processes, this run has %d"
              (Online.n engine) n));
    if Online.track_open engine <> track_open then
      Io.fail (Io.Corrupt "durable state disagrees on open-interval tracking");
    Meter.add meter "recovery.replayed_events" info.replayed_events;
    let session ~wal ~base_events = make ~dir ~config ~meter ~engine ~wal ~base_events in
    let t =
      match last with
      | Some l ->
          (* continue the segment recovery ended in, minus its torn tail *)
          session
            ~wal:(Wal.reopen ~dir ~gen:l.lgen l.lread)
            ~base_events:l.lread.Wal.header.Wal.base_events
      | None ->
          (* snapshot installed but its segment never created *)
          let seen = Online.events_seen engine in
          session
            ~wal:
              (Wal.create ~dir ~gen:base_gen ~header:(header engine ~gen:base_gen ~base_events:seen))
            ~base_events:seen
    in
    retain t (List.filter (fun g -> not (List.mem_assoc g info.skipped)) snaps);
    (* an older-format segment only ever loses its torn tail: appends
       go to the fresh segment of a new snapshot *)
    (match last with
    | Some l when l.lread.Wal.version <> Wal.version -> (
        try install_snapshot t
        with exn ->
          abort t;
          raise exn)
    | _ -> ());
    (t, Some info)
  end

let checker_session t =
  Rdt_check.Session.of_backend
    {
      Rdt_check.Session.engine = (fun () -> engine t);
      observe = (fun ev -> observe t ev);
      sync = (fun () -> sync t);
      close = (fun () -> close t);
    }
