(* U1 fixture: every export here is referenced by another unit, each
   submodule in a different way (see ok_u1_use.ml). *)

module Aliased : sig
  val f : int -> int
end

module Included : sig
  val g : int -> int
end

module Packed : sig
  val h : int -> int
end
