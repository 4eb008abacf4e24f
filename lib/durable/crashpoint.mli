(** Deterministic fault injection for the durable I/O path.

    The write path ({!Io}, {!Wal}, {!Snapshot}) announces every
    potentially-torn instant — each buffer write, fsync, rename and
    directory fsync — as a numbered {e crash site}.  A test arms the
    hook at site [N]; the [N]th hit raises {!Crash}, which unwinds
    without flushing anything, leaving the files exactly as a SIGKILL at
    that instant would.  Driving [N] over [1..]{!hits} proves the
    recovery invariant at {e every} site.

    Disarmed (the default, and the only production state) a site hit is
    two loads and an increment.  The crash schedule is a pure function
    of [at], so a matrix cell is replayable; tests derive [at] values
    from {!Rdt_dist.Rng} streams where they sample instead of
    enumerating. *)

exception Crash of string
(** The injected abort; the payload is the site label. *)

val reset : unit -> unit
(** Disarm and zero the site counter. *)

val arm : at:int -> unit
(** Zero the counter and crash at the [at]-th site hit (1-based).
    @raise Invalid_argument if [at < 1]. *)

val disarm : unit -> unit
(** Stop crashing but keep counting (used right after a caught crash so
    recovery itself runs to completion). *)

val hits : unit -> int
(** Sites hit since the last {!reset}/{!arm} — a disarmed dry run over a
    workload yields the matrix bound. *)

val hit : string -> unit
(** Announce an atomic site (fsync, rename).  May raise {!Crash}. *)

val cap : string -> int -> int
(** Announce a write site of [len] bytes.  Returns how many bytes to
    actually write: [len] normally, [len / 2] when this hit is the armed
    one — the caller writes the torn prefix and then calls {!crash},
    so recovery is exercised against CRC-invalid tails, not only cleanly
    missing ones. *)

val crash : string -> 'a
(** Raise {!Crash} (after a partial {!cap} write). *)
