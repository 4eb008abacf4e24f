(** Order-stable traversal of hash tables.

    [Hashtbl.iter]/[Hashtbl.fold] enumerate buckets in an unspecified
    order that varies with the hash function, the insertion history and
    the OCaml version.  Any such enumeration that reaches ordered output
    (reports, JSON, tables) is a reproducibility bug waiting to happen —
    the repo's headline guarantee is bit-identical output for every
    [--jobs N] and across traced/untraced runs.

    This module is the sanctioned way to get bindings {e out} of a table:
    every traversal is keyed by an explicit comparison, so the result is a
    pure function of the table's contents.  The [rdtlint] D1 rule flags
    direct [Hashtbl.iter]/[Hashtbl.fold] call sites everywhere except
    here (and explicitly allowlisted lines). *)

val bindings_sorted : compare:('k -> 'k -> int) -> ('k, 'v) Hashtbl.t -> ('k * 'v) list
(** All bindings, sorted by key with [compare].  When a key has several
    bindings (via [Hashtbl.add]), their relative order is the table's
    most-recent-first order, kept stable by the sort. *)

val keys_sorted : compare:('k -> 'k -> int) -> ('k, 'v) Hashtbl.t -> 'k list

val iter_sorted : compare:('k -> 'k -> int) -> ('k -> 'v -> unit) -> ('k, 'v) Hashtbl.t -> unit

(** A hash table on [int] keys whose hash is computed in OCaml, a multiply
    and a shift, not by a call to the runtime's generic [Hashtbl.hash].
    For lookups on hot paths; like any hash table its bucket order is
    unspecified, so nothing may reach output by iterating it. *)
module Int : Hashtbl.S with type key = int
