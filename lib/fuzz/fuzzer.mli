(** The fuzz campaign driver.

    A campaign executes [budget] scenarios, each generated from
    [Rng.derive_seed seed "fuzz.cell.<index>"] — a pure function of
    [(seed, index)], so the campaign's counts and its first failure are
    bit-identical whatever order (or parallelism) the cells run in.  On
    failure, the {e smallest-index} failing scenario is re-executed and
    handed to {!Shrink.minimize}.

    The driver takes the map function as a value (default sequential) so
    the harness can inject its deterministic domain pool without this
    library depending on it. *)

type mapper = { map : 'a 'b. ('a -> 'b) -> 'a list -> 'b list }

type config = {
  seed : int;
  budget : int;
  mutation : Exec.mutation option;
}

val default_config : config
(** Seed 1, budget 200, no mutation. *)

type counts = {
  ok : int;
  violations : int;
  divergences : int;
  drain_failures : int;
  crashes : int;
}

type failure = {
  index : int;  (** scenario index within the campaign *)
  original : Scenario.t;
  kind : Exec.kind;
  detail : string;
  shrunk : Scenario.t;
  shrink : Shrink.stats;
}

type report = { scenarios : int; counts : counts; failure : failure option }

val scenario_at : config -> int -> Scenario.t
(** The [i]-th scenario of the campaign (pure). *)

val run : ?mapper:mapper -> config -> report
(** Executes the campaign.  The [fuzz.scenarios] counter and the
    per-classification [fuzz.*] counters in {!Rdt_obs.Meter.default}
    account the whole campaign. *)

val minimize : ?mutation:Exec.mutation -> Scenario.t -> (failure, string) result
(** Shrink one explicit scenario (the [--minimize] entry point): [Error]
    if the scenario is invalid or does not fail. *)
