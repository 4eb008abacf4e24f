(* D2 fixture: explicit, type-specific comparison — and polymorphic
   compare at immediate types, which the rule must not flag. *)

let eq_pattern = Rdt_pattern.Pattern.equal
let cmp_ints (a : int) (b : int) = compare a b
let eq_strings (a : string) (b : string) = a = b
let find_int (x : int) xs = List.mem x xs
