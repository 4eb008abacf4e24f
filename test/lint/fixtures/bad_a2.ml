(* A2 fixture: "observability" code (this directory is passed as
   --obs-prefix by the expect test) mutating pattern-layer state. *)

let corrupt_reachability g c =
  let s = Rdt_pattern.Rgraph.reachable_set g c in
  Rdt_pattern.Bitset.add s 0;
  s

let scramble_events p =
  let es = Rdt_pattern.Pattern.events p 0 in
  es.(0) <- es.(Array.length es - 1);
  es

let inflate_vector v =
  Rdt_dist.Vclock.set v 0 99;
  Rdt_dist.Vclock.merge v v;
  v
