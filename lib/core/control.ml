type t =
  | Nothing
  | Tdv of int array
  | Full of { tdv : int array; simple : int array; causal : int array }

let bits = 63
let words ~n = (n + bits - 1) / bits
let mem a ~at k = a.(at + (k / bits)) land (1 lsl (k mod bits)) <> 0
let set a ~at k = a.(at + (k / bits)) <- a.(at + (k / bits)) lor (1 lsl (k mod bits))
let clear a ~at k = a.(at + (k / bits)) <- a.(at + (k / bits)) land lnot (1 lsl (k mod bits))
