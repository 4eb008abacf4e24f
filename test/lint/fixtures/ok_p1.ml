(* P1 fixture: comparisons the compiler sees at an immediate type, a
   comparison at a known non-immediate type, and a local [compare]. *)

let new_dep ~(tdv : int array) ~(m_tdv : int array) =
  let n = Array.length tdv in
  let rec loop k = k < n && (m_tdv.(k) > tdv.(k) || loop (k + 1)) in
  loop 0

let smaller a b = Int.min a b
let same_name (a : string) b = a = b
let sort_pairs (l : (int * int) list) = List.sort compare l

let shadowed l =
  let compare a b = Hashtbl.hash a - Hashtbl.hash b in
  List.sort compare l
