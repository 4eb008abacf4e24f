(* Crash-instrumented, retrying I/O primitives for the durable layer.

   Everything here goes through raw [Unix] file descriptors on purpose:
   stdlib channels keep userland buffers that a [with_open_*] finalizer
   flushes even when an exception unwinds — which would make a simulated
   crash *more* durable than a real one and hide torn-write bugs.  Here
   a byte reaches the kernel only through [write_all], and durability is
   claimed only after [fsync] returns. *)

type error =
  | No_space of string  (** ENOSPC while writing the named file *)
  | Io_error of string  (** transient error that survived the bounded retry *)
  | Corrupt of string  (** durable state damaged beyond every fallback *)

exception Error of error

let error_message = function
  | No_space what -> Printf.sprintf "no space left on device while writing %s" what
  | Io_error what -> Printf.sprintf "I/O error: %s" what
  | Corrupt what -> Printf.sprintf "durable state corrupt beyond recovery: %s" what

let fail e = raise (Error e)

(* Transient-failure policy: EINTR and EAGAIN retry immediately, then
   with a short linear backoff; the attempt budget is generous but
   finite, so a persistently failing device surfaces as a typed error
   instead of a hang.  ENOSPC is never transient. *)
let max_attempts = 25

let backoff attempt =
  (* first retries are free (EINTR after a signal is the common case);
     later ones wait attempt-proportionally, capped well under a second.
     The sleep reads real time and is sanctioned in .rdtlint: it can
     only delay durable I/O, never influence simulation output. *)
  if attempt > 2 then Unix.sleepf (Float.min 0.1 (0.002 *. float_of_int attempt))

let rec retrying ~name ~attempt f =
  match f () with
  | v -> v
  | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> fail (No_space name)
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) ->
      if attempt >= max_attempts then
        fail (Io_error (Printf.sprintf "%s: still interrupted after %d attempts" name attempt))
      else begin
        backoff attempt;
        retrying ~name ~attempt:(attempt + 1) f
      end
  | exception Unix.Unix_error (e, fn, _) ->
      fail (Io_error (Printf.sprintf "%s: %s (%s)" name (Unix.error_message e) fn))

let with_retries ~name f = retrying ~name ~attempt:1 f

(* [write_all] is the one place bytes reach a descriptor.  Short writes
   loop; the crashpoint cap may truncate the quota to simulate a torn
   write, in which case the torn prefix is written and the crash raised
   only after it — the on-disk image really is torn. *)
let write_all ~name ?len fd bytes =
  let len = match len with None -> Bytes.length bytes | Some l -> l in
  if len < 0 || len > Bytes.length bytes then invalid_arg "Io.write_all: len";
  let quota = Crashpoint.cap (name ^ ".write") len in
  let rec go pos =
    if pos < quota then begin
      let n =
        with_retries ~name (fun () -> Unix.write fd bytes pos (quota - pos))
      in
      if n = 0 then fail (Io_error (name ^ ": write returned 0"));
      go (pos + n)
    end
  in
  go 0;
  if quota < len then Crashpoint.crash (name ^ ".write.torn")

(* Every durability call, file and directory fsync alike, counts in one
   counter: it is what a sync point costs on a real disk. *)
let fsyncs = "io.fsync"

let fsync ~name fd =
  Crashpoint.hit (name ^ ".fsync");
  Rdt_obs.Meter.incr Rdt_obs.Meter.default fsyncs;
  with_retries ~name (fun () -> Unix.fsync fd)

(* Directory fsync makes renames/creations themselves durable; some
   filesystems refuse fsync on a directory fd — degrade silently, the
   data fsync already happened. *)
let fsync_dir dir =
  Crashpoint.hit "dir.fsync";
  Rdt_obs.Meter.incr Rdt_obs.Meter.default fsyncs;
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let rename ~src ~dst =
  Crashpoint.hit "rename";
  with_retries ~name:("rename " ^ dst) (fun () -> Unix.rename src dst)

let openfile ~name path flags perm =
  with_retries ~name (fun () -> Unix.openfile path flags perm)

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

let read_file ~name path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> None
  | exception Unix.Unix_error (e, fn, _) ->
      fail (Io_error (Printf.sprintf "%s: %s (%s)" name (Unix.error_message e) fn))
  | fd ->
      Fun.protect
        ~finally:(fun () -> close_noerr fd)
        (fun () ->
          let buf = Buffer.create 65536 in
          let chunk = Bytes.create 65536 in
          let rec go () =
            let n = with_retries ~name (fun () -> Unix.read fd chunk 0 (Bytes.length chunk)) in
            if n > 0 then begin
              Buffer.add_subbytes buf chunk 0 n;
              go ()
            end
          in
          go ();
          Some (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* Non-durable raw-descriptor helpers.  These exist so the rest of the
   repo never touches [Unix] file primitives directly (the S1 lint rule
   confines them to this unit): the durable policy lives above, these
   carry only the EINTR discipline. *)

let unlink_quiet path = try Unix.unlink path with Unix.Unix_error _ -> ()

let ftruncate ~name fd len = with_retries ~name (fun () -> Unix.ftruncate fd len)

(* Socket-side reads/writes for the serve layer: EINTR retries here so
   callers never see it; EAGAIN/EWOULDBLOCK escape untouched — on a
   nonblocking descriptor they are the event loop's control flow, not
   failures — and so does every other [Unix_error]. *)
let rec recv fd buf off len =
  match Unix.read fd buf off len with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> recv fd buf off len

let rec send_substring fd s off len =
  match Unix.write_substring fd s off len with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> send_substring fd s off len
