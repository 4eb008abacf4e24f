(** Random checkpoint & communication patterns for property-based tests.

    The generator drives {!Rdt_pattern.Pattern.Builder} directly with a
    random interleaving of sends, deliveries and checkpoints — it is not
    constrained by any protocol, so the patterns freely contain non-causal
    chains, Z-cycles and RDT violations.  Everything derives
    deterministically from the seed. *)

val random_pattern : ?n:int -> ?steps:int -> seed:int -> unit -> Rdt_pattern.Pattern.t
(** [n] defaults to a seed-derived value in [\[2, 5\]]; [steps] (builder
    operations before draining) defaults to a seed-derived value in
    [\[10, 80\]]. *)

val pattern_arbitrary : Rdt_pattern.Pattern.t QCheck.arbitrary
(** QCheck arbitrary wrapping {!random_pattern} (prints the pattern
    summary on failure). *)

val small_pattern_arbitrary : Rdt_pattern.Pattern.t QCheck.arbitrary
(** Patterns small enough for exhaustive (exponential) reference
    computations: [n <= 3], few checkpoints per process. *)

(** {1 Shrinkable recipes}

    QCheck shrinks generated values, and a finished pattern cannot be
    shrunk structurally without re-running the builder — so properties
    that want shrinking generate a [recipe] (the builder's inputs) and
    materialize the pattern themselves.  Shrinking lowers [n] and
    [steps] while keeping the seed, so a failure minimizes to a smaller
    prefix of the same random walk. *)

type recipe = { seed : int; n : int; steps : int }

val pattern_of_recipe : recipe -> Rdt_pattern.Pattern.t

val small_recipe_arbitrary : recipe QCheck.arbitrary
(** Recipes for exhaustive reference computations: [n <= 3], [steps] in
    [\[8, 20\]]; shrinks [n] and [steps]. *)

(** {1 Transport link scenarios}

    One src -> dst link of the reliable-delivery transport under a
    generated fault schedule (shared by the transport property suite and
    anything else exercising a single faulty link). *)

type link_scenario = {
  link_seed : int;
  drop : float;
  dup : float;
  reorder : float;
  window : int;
  partition : (int * int) option;  (** dst cut off during [\[from_t, to_t)] *)
  max_retx : int;
  retx_timeout : int;
  messages : int;
  send_gap : int;  (** ticks between consecutive sends *)
}

val link_scenario_arbitrary : link_scenario QCheck.arbitrary
(** Shrinks by disabling fault dimensions, then thinning traffic. *)

val faults_of_link : link_scenario -> Rdt_dist.Faults.spec
