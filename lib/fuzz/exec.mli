(** Scenario executor: one adversarial run, fully cross-checked.

    A scenario runs through {!Rdt_core.Runtime}, crashes included, with
    the online checker tee'd into the live trace stream.  The finished run
    is then audited from independent angles: transport conservation
    (crash runs too, over their stop-and-wait accounting), agreement
    of all four {!Rdt_core.Checker} algorithms with the live engine and
    (when {!Oracle.affordable}) the brute-force oracle,
    {!Rdt_obs.Replay.rebuild} round-tripping the trace back to the exact
    surviving pattern, and — for RDT-guaranteeing protocols — the RDT
    verdict itself.  The first audit to fail classifies the outcome.

    Meters: each execution runs under the [fuzz.exec] span and bumps one
    [fuzz.<classification>] counter in {!Rdt_obs.Meter.default}. *)

(** Sanctioned fault injections into the {e checking} pipeline (never the
    simulation), for end-to-end tests of the find-then-shrink machinery
    on a healthy tree. *)
type mutation =
  | Hide_rollbacks
      (** drop [Rollback] events before the replay cross-check: any run
          with an effective rollback diverges *)
  | Flip_rgraph
      (** negate the R-graph checker's verdict in the agreement check:
          every run diverges, so the shrinker must reach the structural
          floor *)

val mutation_name : mutation -> string

val mutation_of_string : string -> (mutation, string) result
(** Recognizes ["hide-rollbacks"] and ["flip-rgraph"]. *)

type kind = Rdt_violation | Checker_divergence | Drain_failure | Crash

val kind_name : kind -> string
(** ["rdt-violation"], ["checker-divergence"], ["drain-failure"],
    ["crash"]. *)

type outcome = Pass | Fail of { kind : kind; detail : string }

type report = {
  scenario : Scenario.t;
  outcome : outcome;
  events : Rdt_obs.Trace.event list;
      (** the live trace, [Meta] header first (empty when the run itself
          crashed) *)
  rdt : bool;  (** the R-graph verdict of the surviving pattern *)
  first_violation : int option;  (** live engine's latched event index *)
}

val run : ?mutation:mutation -> Scenario.t -> report
(** @raise Invalid_argument on scenarios {!Scenario.validate} rejects —
    validate first. *)

val classify : ?mutation:mutation -> Scenario.t -> outcome
(** {!run} without retaining the events (what the fuzz loop calls). *)
