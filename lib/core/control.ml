type t =
  | Nothing
  | Tdv of int array
  | Full of { tdv : int array; simple : bool array; causal : bool array array }

let copy_matrix m = Array.map Array.copy m
