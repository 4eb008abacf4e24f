(** Locating and reading the typed ASTs ([.cmt] files) dune produced.

    rdtlint runs from the build context root (that is what [dune build
    @lint] does), where every library's cmts sit under
    [<dir>/.<lib>.objs/byte/]; scanning the source directories
    recursively therefore finds them without knowing dune's layout. *)

type unit_info = {
  cmt_path : string;
  source : string;  (** as recorded by the compiler, relative to the workspace root *)
  modname : string;  (** the compiled module name, e.g. [Rdt_pattern__Bitset] *)
  structure : Typedtree.structure;
  interface : Typedtree.signature option;  (** the [.mli]'s typed signature, if any *)
}

val excluded : excludes:string list -> string -> bool
(** [true] iff the path falls under one of the [excludes] prefixes. *)

val find_cmts : excludes:string list -> string list -> string list
(** Every [.cmt] under the given files/directories, sorted, minus paths
    under an [excludes] prefix. *)

val load : string -> (unit_info option, string) result
(** [Ok None] for interfaces, packed modules, partial cmts and dune's
    generated library-alias modules; [Error _] if the file (or the
    unit's [.cmti]) cannot be read (version skew, truncation) — the
    driver treats that as a hard error rather than silently linting
    less. *)
