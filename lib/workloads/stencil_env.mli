(** Stencil / iterative-phases environment: processes sit on a ring and,
    in each phase, exchange one message with each of their two neighbours,
    starting the next phase once both neighbours' values have arrived — a
    self-clocking bulk-synchronous pattern typical of iterative numerical
    codes.  Dependencies advance in lock-step waves, which makes the
    dependency vectors change on almost every delivery. *)

type stencil_params = {
  warmup_mean : int;  (** mean delay before a process starts phase 0 *)
  compute_internal : bool;
      (** emit an internal event (the "compute" step) at each phase
          boundary *)
}

val make : ?params:stencil_params -> unit -> Rdt_dist.Env.t
