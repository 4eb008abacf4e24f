let first k keep =
  let rec go seed acc =
    if List.length acc = k then List.rev acc
    else if seed > 10_000 then failwith "Scenarios.first: too few scenarios by seed 10000"
    else
      let sc = Rdt_fuzz.Scenario.generate ~seed in
      go (seed + 1) (if keep sc then sc :: acc else acc)
  in
  go 1 []
