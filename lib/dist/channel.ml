type spec =
  | Fixed of int
  | Uniform of int * int
  | Bimodal of { fast : int; slow : int; slow_prob : float }

let validate = function
  | Fixed d when d >= 1 -> Ok ()
  | Fixed _ -> Error "Fixed delay must be >= 1"
  | Uniform (lo, hi) when 1 <= lo && lo <= hi -> Ok ()
  | Uniform _ -> Error "Uniform delay requires 1 <= lo <= hi"
  | Bimodal { fast; slow; slow_prob } when fast >= 1 && slow >= fast && slow_prob >= 0.0 && slow_prob <= 1.0 -> Ok ()
  | Bimodal _ -> Error "Bimodal delay requires 1 <= fast <= slow and slow_prob in [0;1]"

(* No clamping here: specs are rejected up front ({!validate} is enforced
   at every config entry point), so for any spec that got this far the
   drawn delay is already >= 1. *)
let sample rng = function
  | Fixed d -> d
  | Uniform (lo, hi) -> Rng.int_in rng lo hi
  | Bimodal { fast; slow; slow_prob } -> if Rng.bernoulli rng slow_prob then slow else fast
