(* U1 fixture: the references ok_u1.mli's exports rely on. *)

(* through a local module alias *)
module A = Ok_u1.Aliased

let via_alias = A.f 1

(* a module used whole: include *)
include Ok_u1.Included

(* a module used whole: a first-class module pack *)
module type H = sig
  val h : int -> int
end

let via_pack = (module Ok_u1.Packed : H)

(* plain references, from outside any test directory; the alias uses
   one value of Bad_u1.Aliased, not the module *)
let direct = Bad_u1.used 0

module B = Bad_u1.Aliased

let via_bad_alias = B.used 0
