module Rng = Rdt_dist.Rng
module Meter = Rdt_obs.Meter

type mapper = { map : 'a 'b. ('a -> 'b) -> 'a list -> 'b list }

let sequential = { map = List.map }

type config = {
  seed : int;
  budget : int;
  mutation : Exec.mutation option;
}

let default_config = { seed = 1; budget = 200; mutation = None }

type counts = {
  ok : int;
  violations : int;
  divergences : int;
  drain_failures : int;
  crashes : int;
}

type failure = {
  index : int;
  original : Scenario.t;
  kind : Exec.kind;
  detail : string;
  shrunk : Scenario.t;
  shrink : Shrink.stats;
}

type report = { scenarios : int; counts : counts; failure : failure option }

let scenario_at cfg i =
  Scenario.generate ~seed:(Rng.derive_seed cfg.seed (Printf.sprintf "fuzz.cell.%d" i))

let shrink_failure ?mutation index sc kind detail =
  let shrunk, _, stats = Shrink.minimize ?mutation sc in
  { index; original = sc; kind; detail; shrunk; shrink = stats }

let run ?(mapper = sequential) cfg =
  if cfg.budget < 0 then invalid_arg "Fuzzer.run: negative budget";
  Meter.time Meter.default "fuzz.campaign" (fun () ->
      let outcomes =
        mapper.map
          (fun i -> (i, Exec.classify ?mutation:cfg.mutation (scenario_at cfg i)))
          (List.init cfg.budget Fun.id)
      in
      Meter.add Meter.default "fuzz.scenarios" cfg.budget;
      let counts =
        List.fold_left
          (fun acc (_, o) ->
            match o with
            | Exec.Pass -> { acc with ok = acc.ok + 1 }
            | Exec.Fail { kind = Exec.Rdt_violation; _ } ->
                { acc with violations = acc.violations + 1 }
            | Exec.Fail { kind = Exec.Checker_divergence; _ } ->
                { acc with divergences = acc.divergences + 1 }
            | Exec.Fail { kind = Exec.Drain_failure; _ } ->
                { acc with drain_failures = acc.drain_failures + 1 }
            | Exec.Fail { kind = Exec.Crash; _ } -> { acc with crashes = acc.crashes + 1 })
          { ok = 0; violations = 0; divergences = 0; drain_failures = 0; crashes = 0 }
          outcomes
      in
      let failure =
        (* smallest failing index: deterministic whatever the mapper *)
        List.fold_left
          (fun acc (i, o) ->
            match (acc, o) with
            | Some _, _ | _, Exec.Pass -> acc
            | None, Exec.Fail { kind; detail } -> Some (i, kind, detail))
          None outcomes
        |> Option.map (fun (i, kind, detail) ->
               shrink_failure ?mutation:cfg.mutation i (scenario_at cfg i) kind detail)
      in
      { scenarios = cfg.budget; counts; failure })

let minimize ?mutation sc =
  match Scenario.validate sc with
  | Error e -> Error (Printf.sprintf "invalid scenario: %s" e)
  | Ok () -> (
      match Exec.classify ?mutation sc with
      | Exec.Pass -> Error "scenario passes all checks; nothing to minimize"
      | Exec.Fail { kind; detail } -> Ok (shrink_failure ?mutation 0 sc kind detail))
