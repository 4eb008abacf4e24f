(* Lifecycle of a serve daemon in its own process: start it, wait for it
   by retrying [Client.connect] (never a fixed sleep), read its peak RSS,
   stop it with SIGTERM and reap it.  Live daemons are killed at exit so
   a failing run leaves no process behind. *)

module Client = Rdt_serve.Client

type t = { pid : int; socket : string; mutable reaped : bool }

let live : t list ref = ref []

let reap d =
  if not d.reaped then begin
    d.reaped <- true;
    live := List.filter (fun d' -> d'.pid <> d.pid) !live;
    let rec wait () =
      match Unix.waitpid [] d.pid with
      | _, status -> status
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    let status = wait () in
    (try Sys.remove d.socket with Sys_error _ -> ());
    status
  end
  else Unix.WEXITED 0

let kill_quiet d = try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()

let () =
  at_exit (fun () ->
      List.iter
        (fun d ->
          kill_quiet d;
          ignore (reap d))
        !live)

(* [argv.(0)] is the program; the daemon's stderr is ours. *)
let spawn ~socket argv =
  let pid = Unix.create_process argv.(0) argv Unix.stdin Unix.stderr Unix.stderr in
  let d = { pid; socket; reaped = false } in
  live := d :: !live;
  d

(* The shipped binary with the CLI's default batch, pending bound and
   tick, on one domain. *)
let start_binary ~rdtsim ~socket =
  spawn ~socket [| rdtsim; "serve"; "--jobs"; "1"; "--socket"; socket |]

(* Retry [Client.connect] until the daemon accepts, for at most 30 s. *)
let connect d =
  let deadline = Rdt_obs.Meter.now () +. 30. in
  let rec go () =
    match Client.connect ~socket:d.socket with
    | c -> c
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
        | 0, _ -> ()
        | _ ->
            d.reaped <- true;
            failwith "serve daemon exited before accepting connections");
        if Rdt_obs.Meter.now () > deadline then failwith "serve daemon never accepted a connection";
        (* back off briefly so the retry loop does not starve the
           starting daemon of the machine's other core *)
        Unix.sleepf 0.0002;
        go ()
  in
  go ()

let peak_rss_mb d = Inputs.peak_rss_mb d.pid
let cpu_s d = Inputs.cpu_s d.pid

let stop d =
  kill_quiet d;
  match reap d with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> failwith (Printf.sprintf "serve daemon exited with code %d" c)
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> failwith (Printf.sprintf "serve daemon killed by signal %d" s)
