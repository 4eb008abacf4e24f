(** Registry of the protocols shipped by the library. *)

val all : Protocol.t list
(** Every protocol, ordered from most to least conservative:
    [cbr], [nras], [cas], [fdi], [fdas], [bhmr-v2], [bhmr-v1], [bhmr],
    then the index-based [bcs] (a weaker guarantee: no useless
    checkpoints, but not RDT) and the [none] baseline. *)

val rdt_protocols : Protocol.t list
(** The members of {!all} that guarantee RDT (everything except [bcs]
    and [none]). *)

val find : string -> Protocol.t option
(** Look up by {!Protocol.name}. *)

val find_exn : string -> Protocol.t
(** @raise Invalid_argument on unknown names (the message lists the valid
    ones). *)
