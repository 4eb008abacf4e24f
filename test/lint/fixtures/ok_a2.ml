(* A2 fixture: observation-only access — reads, folds, and building a
   *fresh* pattern through the Builder are all sanctioned. *)

let reach_count g c =
  let n = ref 0 in
  Rdt_pattern.Bitset.iter (fun _ -> incr n) (Rdt_pattern.Rgraph.reachable_set g c);
  !n

let forced_count p =
  Rdt_pattern.Pattern.fold_ckpts p ~init:0 ~f:(fun acc c ->
      match c.Rdt_pattern.Types.kind with Forced -> acc + 1 | _ -> acc)

let vector_weight v =
  let total = ref 0 in
  Rdt_dist.Vclock.iteri v ~f:(fun _ x -> total := !total + x);
  (!total, Rdt_dist.Vclock.nnz v)

let fresh_two_process () =
  let b = Rdt_pattern.Pattern.Builder.create ~n:2 in
  let _c0 = Rdt_pattern.Pattern.Builder.checkpoint b 0 in
  let _c1 = Rdt_pattern.Pattern.Builder.checkpoint b 1 in
  Rdt_pattern.Pattern.Builder.finish b
