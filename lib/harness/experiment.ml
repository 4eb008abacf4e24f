module Metrics = Rdt_core.Metrics

let forced_ratio (r : Rdt_core.Runtime.result) (baseline : Rdt_core.Runtime.result) =
  let f = r.metrics.Metrics.forced and fb = baseline.metrics.Metrics.forced in
  if fb > 0 then Some (float_of_int f /. float_of_int fb) else None

let default_seeds = List.init 10 (fun i -> i + 1)

let quick_seeds = [ 1; 2; 3 ]

let cell_seed path seed = Rdt_dist.Rng.derive_seed seed (String.concat "/" path)
