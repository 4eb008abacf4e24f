let bindings_sorted ~compare:cmp tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> cmp a b)

let keys_sorted ~compare:cmp tbl = List.map fst (bindings_sorted ~compare:cmp tbl)

let iter_sorted ~compare:cmp f tbl =
  List.iter (fun (k, v) -> f k v) (bindings_sorted ~compare:cmp tbl)

(* Fibonacci hashing: the high bits of the key times an odd constant,
   2^62 over the golden ratio.  Consecutive ids spread over every bucket,
   and the hash is two instructions instead of a [caml_hash] call. *)
module Int = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash x = (x * 0x278dde6e5fd29f05) lsr 31
end)
