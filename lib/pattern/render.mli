(** Plain-text space-time diagrams of small patterns.

    One row per process, one column per event (in global-sequence order):
    [Cx] marks checkpoint [x], [s<id>] a send, [r<id>] a delivery, [.] an
    internal event.  A message legend follows the grid.  Meant for
    debugging, documentation, and the CLI's [--draw]. *)

val ascii : Pattern.t -> (string, string) result
(** The diagram, or [Error] explaining why the pattern is too large. *)
