(* P1 fixture: comparisons left at a type variable, which compile to the
   runtime's generic comparison whatever an interface promises. *)

let new_dep ~tdv ~m_tdv =
  let n = Array.length tdv in
  let rec loop k = k < n && (m_tdv.(k) > tdv.(k) || loop (k + 1)) in
  loop 0

let same_entry ~pid ~tdv ~m_tdv = m_tdv.(pid) = tdv.(pid)
let sort_all l = List.sort compare l
let smaller a b = min a b
let larger a b = Stdlib.max a b
let rec mem x = function [] -> false | y :: rest -> x = y || mem x rest
