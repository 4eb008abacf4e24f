(* D2 fixture: polymorphic comparison/hashing at types where it is
   unsound (cached fields, functions) or order-unstable. *)

let eq_pattern (a : Rdt_pattern.Pattern.t) b = a = b
let neq_pattern (a : Rdt_pattern.Pattern.t) b = a <> b
let cmp_graph (a : Rdt_pattern.Rgraph.t) b = compare a b
let hash_graph (g : Rdt_pattern.Rgraph.t) = Hashtbl.hash g
let cmp_funs (f : int -> int) (g : int -> int) = compare f g
let find_pattern (p : Rdt_pattern.Pattern.t) ps = List.mem p ps
