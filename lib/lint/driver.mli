(** Load every [.cmt] under the given paths and run the rule engine.

    Two passes: first every unit is loaded and the whole-set
    [Callgraph] + [Summary] environment and the [Refs] index are
    computed (the interprocedural rules and U1 need cross-unit
    resolution), then each unit gets the per-unit rule sweep.  Paths are walked recursively;
    anything matching an [excludes] prefix — compared both against the
    on-disk walk path and against the source path recorded in the cmt —
    is skipped.  Findings are deduplicated and sorted (file, line, col,
    rule) so output is stable across traversal order.

    With [strict_allowlist], allowlist entries that suppressed no
    finding (for rules that ran) become findings themselves, rule id
    [STALE], anchored at the entry's own line in the allowlist file. *)

type result = {
  findings : Finding.t list;  (** sorted by file, line, col, rule *)
  errors : string list;  (** unreadable cmts: a hard failure, not a quiet skip *)
  units : int;  (** implementation units actually linted *)
}

val run :
  ?rules:Rule.t list ->
  ?allowlist:Allowlist.t ->
  ?excludes:string list ->
  ?strict_allowlist:bool ->
  string list ->
  result
