(* Fixed-Dependency-Interval: the transitive dependency vector of an
   interval is frozen at the interval's first event — any arriving message
   carrying a new dependency forces a checkpoint, whether or not the
   process has sent anything.  Strictly more conservative than FDAS, whose
   state, payload and merge it shares; only its predicate differs. *)

include Fdas

let name = "fdi"
let describe = "fixed dependency vector per interval (force on any new dependency)"
let evaluated = Predicates.c_fdi_bit
let predicates st ~src payload = Fdas.predicates st ~src payload land evaluated
let must_force st ~src payload = predicates st ~src payload <> 0
