(** Rebuild a checkpoint-and-communication pattern from a trace.

    The rebuild folds the events, in emission order, into a
    {!Rdt_pattern.History}; a {!Trace.Rollback} pops a process back to
    the named checkpoint, exactly as recovery truncated the live run's
    history.  The surviving history then becomes a pattern structurally
    equal to the one the live run handed to the checkers — so the trace is
    a self-contained correctness artifact: re-running the offline RDT
    checkers on the rebuilt pattern must reproduce the recorded
    {!Trace.Verdict} lines. *)

val meta : Trace.event list -> (int * string * string * int * string) option
(** First [Meta] header as [(n, protocol, env, seed, mode)], if any. *)

val verdicts : Trace.event list -> (string * bool) list
(** Recorded live verdicts, in trace order. *)

val process_count : Trace.event list -> (int, string) result
(** The process count a trace implies: the first [Meta] header's [n], or
    the largest pid mentioned plus one.  Errors on an empty trace. *)

val rebuild : Trace.event list -> (Rdt_pattern.Pattern.t, string) result
(** Rebuild the surviving pattern, with {!process_count} processes.
    Errors on structurally impossible traces (delivery of an unknown or
    undeliverable message, rollback to a rolled-back checkpoint, ...). *)

type summary = {
  n : int;
  events : int;
  by_kind : (string * int) list;  (** tag -> occurrences, every tag listed *)
  forced_by_pred : (string * int) list;
      (** forced checkpoints grouped by the predicate set that fired,
          e.g. [("c2,c_fdas", 3)]; sorted by key *)
  max_time : int;
}

val summarize : Trace.event list -> summary

val pp_summary : Format.formatter -> summary -> unit
