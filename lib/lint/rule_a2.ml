(* A2 — observability purity.

   Code under lib/obs/ observes runs; it must never mutate pattern or
   runtime state.  The fixture tree that tests the rule is in scope too
   (the repo-wide lint excludes it).  Rdt_obs cannot even link against
   Rdt_core, so runtime entry points are unreachable by construction;
   what remains reachable — and is flagged here — is mutation of
   pattern-owned values: writes into the arrays the Pattern accessors
   expose ("do not mutate"), writes to record fields of pattern types,
   and the mutating Vclock API (dependency vectors are shared by
   message payloads and checker state).
   Building a *fresh* pattern through Pattern.Builder (as Replay.rebuild
   does) is the sanctioned construction API and is not flagged. *)

let pattern_types =
  [
    "Pattern.t"; "Rgraph.t"; "Vclock.t"; "Tdv.t"; "Types.ckpt"; "Types.message";
    "Types.event";
  ]

(* Sparse dependency vectors are shared widely (message payloads,
   checker state): observation code must treat them as read-only. *)
let vclock_mutators = [ "Vclock.set"; "Vclock.merge"; "Vclock.join" ]

let array_writes = [ "Array.set"; "Array.unsafe_set"; "Array.fill"; "Array.blit" ]

let scope = [ "lib/obs/"; "test/lint/fixtures/" ]

let check (ctx : Rule.ctx) structure =
  let applies = List.exists (fun p -> String.starts_with ~prefix:p ctx.file) scope in
  if applies then
    Scan.iter_expressions structure (fun e ->
        match e.Typedtree.exp_desc with
        | Typedtree.Texp_setfield (tgt, _, ld, _) -> (
            match Scan.type_mentions ~targets:pattern_types tgt.Typedtree.exp_type with
            | Some t ->
                ctx.report ~rule:"A2" ~loc:e.Typedtree.exp_loc
                  (Printf.sprintf
                     "observation-only code writes field '%s' of a value involving %s; \
                      lib/obs must not mutate pattern or runtime state"
                     ld.Types.lbl_name t)
            | None -> ())
        | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, (_, Some a0) :: _) -> (
            let n = Scan.normalize_path p in
            match Scan.find_target n vclock_mutators with
            | Some t ->
                ctx.report ~rule:"A2" ~loc:e.Typedtree.exp_loc
                  (Printf.sprintf
                     "observation-only code calls mutating %s; dependency vectors (message \
                      payloads, checker state) must be treated as read-only here"
                     t)
            | None -> (
                if Scan.matches_any n array_writes then
                  match Scan.type_mentions ~targets:pattern_types a0.Typedtree.exp_type with
                  | Some t ->
                      ctx.report ~rule:"A2" ~loc:e.Typedtree.exp_loc
                        (Printf.sprintf
                           "observation-only code writes into an array involving %s (the \
                            Pattern accessors expose internal arrays: do not mutate)"
                           t)
                  | None -> ()))
        | _ -> ())

let rule =
  {
    Rule.id = "A2";
    doc = "lib/obs is observation-only: no mutation of pattern/runtime state";
    check;
  }
