(** Structured event tracing for simulation runs.

    A trace is the complete, typed record of what a run did and {e why}:
    application sends and deliveries, transport-level retransmissions and
    packet drops, basic and forced checkpoints (with the protocol
    predicates that fired), and — under the crash simulator — rollbacks
    and message replays.  Traces are recorded through a {!t} recorder
    backed by a sink:

    - {!null}: tracing off.  Every instrumentation site is guarded by
      [if Trace.on tr then ...], so a disabled trace costs one branch per
      event and allocates nothing;
    - {!ring}: a bounded in-memory ring buffer keeping the most recent
      events (flight-recorder style; used by the test suite);
    - {!to_channel}: JSONL — one self-describing JSON object per line,
      the interchange format of [rdtsim --trace] and [rdtsim trace].

    A trace is not just a log: {!Replay} rebuilds the run's
    checkpoint-and-communication pattern from it, turning the trace into
    a checkable correctness artifact (the offline RDT verdicts of the
    rebuilt pattern must equal the live run's). *)

type event =
  | Meta of { n : int; protocol : string; env : string; seed : int; mode : string }
      (** Run header, first line of a CLI trace.  [mode] is the producing
          subcommand ([run], [verify], [recover], [crashrun]). *)
  | Send of { msg : int; src : int; dst : int; time : int }
      (** Application message [msg] entrusted to the network. *)
  | Deliver of { msg : int; src : int; dst : int; time : int }
      (** Application-level delivery (exactly once per surviving message;
          a rolled-back delivery is re-recorded when the message is
          replayed). *)
  | Internal of { pid : int; time : int }
  | Ckpt of {
      pid : int;
      index : int;
      kind : Rdt_pattern.Types.ckpt_kind;
      time : int;
      tdv : int array option;
      preds : string list;
          (** for a [Forced] checkpoint: the protocol predicates that were
              true at the triggering arrival ([["after-send"]] for
              checkpoint-after-send protocols, [["recovery"]] for the
              checkpoints securing volatile state at a recovery). *)
    }
  | Retransmit of { src : int; dst : int; seq : int; attempt : int; time : int }
      (** Transport retransmission number [attempt] of sequence [seq] on
          the [src -> dst] link (the crash simulator's per-message
          stop-and-wait uses the message id as [seq]). *)
  | Drop of { src : int; dst : int; time : int }
      (** One packet copy lost to fault sampling or a partition. *)
  | Undeliverable of { msg : int; src : int; dst : int; time : int }
      (** Message abandoned after [max_retx] retransmissions; its send is
          excluded from the rebuilt pattern. *)
  | Rollback of { pid : int; to_index : int; time : int }
      (** Recovery truncated [pid]'s history back to checkpoint
          [to_index]; every later event of [pid] is undone. *)
  | Replay of { msg : int; src : int; dst : int; time : int }
      (** A rolled-back delivery re-entered the channels from the
          sender-side log; the new delivery appears as a later
          {!Deliver}. *)
  | Verdict of { checker : string; rdt : bool }
      (** Offline checker verdict of the live run, appended by the CLI so
          [rdtsim trace replay] can assert the rebuilt pattern agrees. *)

val kind_name : event -> string
(** Lower-case tag ([send], [deliver], [ckpt], ...), also the [ev] field
    of the JSONL encoding. *)

val kind_names : string list
(** Every tag, in a fixed order (for CLI filters and summaries). *)

(** {1 Recorders} *)

type t

val null : t
(** The disabled recorder: {!on} is [false], {!emit} is a no-op. *)

val on : t -> bool
(** [true] iff events are being kept.  Instrumentation sites must guard
    event construction with this so disabled tracing costs one branch. *)

val emit : t -> event -> unit

val ring : capacity:int -> t
(** Keep the most recent [capacity] events in memory.
    @raise Invalid_argument if [capacity <= 0]. *)

val events : t -> event list
(** Retained events, oldest first (empty for {!null} and channel
    recorders). *)

val to_channel : out_channel -> t
(** Stream JSONL to the channel, one event per line (the caller owns the
    channel and its lifetime). *)

val observer : (event -> unit) -> t
(** [observer f] is a recorder that calls [f] on every emitted event and
    retains nothing.  This is how live analyses (the online RDT checker)
    subscribe to a run without the instrumentation sites knowing about
    them. *)

val tee : t -> t -> t
(** [tee a b] duplicates every emission to both recorders.  {!on} is the
    disjunction, {!events} the concatenation of the
    branches' retained events. *)

(** {1 JSONL codec} *)

(** The minimal JSON reader behind {!decode}, exposed so other layers
    (the fuzzer's scenario files, external tooling) can parse structured
    artifacts of the same subset — objects, arrays, ints, floats, bools,
    strings with the escapes {!encode} produces — without a JSON
    dependency. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | Arr of t list
    | Obj of (string * t) list

  exception Parse_error of string

  val parse : string -> (t, string) result

  val member : string -> t -> t option
  (** Field lookup; [None] on missing field or non-object. *)

end

val encode : event -> string
(** One JSON object, no trailing newline. *)

val json_escape : string -> string
(** The string-escape {!encode} uses, for layers composing their own
    JSON around encoded events (the session wire codec). *)

val of_json : Json.t -> (event, string) result
(** The event a parsed JSON object encodes. *)

val decode : string -> (event, string) result
(** {!Json.parse} followed by {!of_json}. *)

val read_file : string -> (event list, string) result
(** Decode a JSONL trace file; blank lines are skipped; the error names
    the offending line number. *)
