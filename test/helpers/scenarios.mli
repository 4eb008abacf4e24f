(** Fuzz-campaign scenarios for tests that need a narrower set than the
    one search space {!Rdt_fuzz.Scenario.generate} draws from: a test
    picks among its draws, so the scenarios it runs are campaign
    scenarios. *)

val first : int -> (Rdt_fuzz.Scenario.t -> bool) -> Rdt_fuzz.Scenario.t list
(** [first k keep] is the first [k] scenarios that [keep] accepts among
    [Rdt_fuzz.Scenario.generate ~seed] for seeds 1, 2, ...
    @raise Failure if seed 10_000 passes before [k] are found. *)
