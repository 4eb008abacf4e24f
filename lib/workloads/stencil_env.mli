(** Stencil / iterative-phases environment: processes sit on a ring and,
    in each phase, perform an internal "compute" event and exchange one
    message with each of their two neighbours, starting the next phase
    once both neighbours' values have arrived — a self-clocking
    bulk-synchronous pattern typical of iterative numerical codes.  A
    process starts phase 0 after a warm-up of mean 30.  Dependencies
    advance in lock-step waves, which makes the dependency vectors change
    on almost every delivery. *)

val env : Rdt_dist.Env.t
