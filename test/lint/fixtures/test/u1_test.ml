(* U1 fixture: the only reference to Bad_u1.only_tested. *)

let () = assert (Rdtlint_fixtures.Bad_u1.only_tested 2 = 4)
