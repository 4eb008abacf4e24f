(* Sample statistics and failure accounting shared by every workload. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs =
  if xs = [] then invalid_arg "Stats.mean: no samples"
  else List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let tail_beyond = 10

type tail = { value : float; pct : float }

(* The tail is the highest percentile with at least [tail_beyond]
   samples beyond it.  Samples pooled from repetitions of one fixed-size
   input take the level of a single repetition of [per_rep] samples,
   [100 (per_rep - 10) / per_rep]: a faster commit that fits more
   repetitions into a run then reports the same percentile, not a
   higher one.  Ranks are computed in integers (nearest rank).
   Undefined for repetitions of ten samples or fewer. *)
let pooled_tail ~per_rep xs =
  if per_rep <= tail_beyond || xs = [] then None
  else begin
    let a = sorted xs in
    let n = Array.length a and keep = per_rep - tail_beyond in
    let rank = ((keep * n) + per_rep - 1) / per_rep in
    Some { value = a.(max 0 (rank - 1)); pct = 100. *. float_of_int keep /. float_of_int per_rep }
  end

let tail xs = pooled_tail ~per_rep:(List.length xs) xs

(* Operations attempted against operations failed: rejected frames,
   [Failed] answers, transport errors and runs that raised. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

let attempt t ~ok =
  t.attempted <- t.attempted + 1;
  if not ok then t.failed <- t.failed + 1

let failed_ratio t =
  if t.attempted = 0 then invalid_arg "Stats.failed_ratio: nothing attempted"
  else float_of_int t.failed /. float_of_int t.attempted
