type ctx = {
  file : string;  (** source path of the unit being linted *)
  env : Summary.env;  (** whole-repo callgraph + function summaries (R2/S1/L1) *)
  refs : Refs.t;  (** whole-repo cross-unit references (U1) *)
  report : rule:string -> loc:Location.t -> string -> unit;
}

type t = {
  id : string;
  doc : string;
  check : ctx -> Typedtree.structure -> unit;
}
