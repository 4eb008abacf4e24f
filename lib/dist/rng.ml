type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* Variant 13 of the MurmurHash3 64-bit finalizer, as used by SplitMix64. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = mix64 (bits64 t) }

let derive_seed seed label =
  (* A keyed split: fold the label into a SplitMix64 walk started at the
     seed, one Weyl step + finalizer per byte, so (seed, label) pairs give
     statistically independent streams and the result does not depend on
     any shared generator state. *)
  let h = ref (mix64 (Int64.of_int seed)) in
  String.iter
    (fun c ->
      h := Int64.add !h golden_gamma;
      h := mix64 (Int64.logxor !h (Int64.of_int (Char.code c))))
    label;
  Int64.to_int (Int64.shift_right_logical (mix64 (Int64.add !h golden_gamma)) 2)

(* A non-negative 62-bit int, safe on 64-bit OCaml. *)
let bits t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let max_usable = 0x3FFF_FFFF_FFFF_FFFF / bound * bound in
  let rec draw () =
    let v = bits t in
    if v < max_usable then v mod bound else draw ()
  in
  draw ()

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

let exponential_int t ~mean =
  if mean <= 0 then invalid_arg "Rng.exponential_int: mean must be positive";
  let u = float t 1.0 in
  let u = if u <= 0.0 then epsilon_float else u in
  let d = -.float_of_int mean *. log u in
  Int.max 1 (int_of_float d)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))
