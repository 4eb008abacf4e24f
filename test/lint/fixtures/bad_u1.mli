(* U1 fixture: exports the rule must report. *)

val unused : int -> int
(** referenced by no other unit *)

val only_tested : int -> int
(** referenced only from the test directory below *)

val used : int -> int

(** reached through a local alias in ok_u1_use.ml, which is no use of
    the whole module: [unused] stays unreferenced *)
module Aliased : sig
  val used : int -> int
  val unused : int -> int
end
