module Pattern = Rdt_pattern.Pattern
module Tdv = Rdt_pattern.Tdv
module Consistency = Rdt_pattern.Consistency
module Ptypes = Rdt_pattern.Types

let of_tdv pat (i, x) =
  let c = Pattern.ckpt pat (i, x) in
  match c.Ptypes.tdv with
  | Some v -> Array.copy v
  | None -> Array.copy (Tdv.at (Tdv.compute pat) (i, x))

let minimum pat c = Consistency.min_consistent_containing pat [ c ]

let minimum_of_set pat cks = Consistency.min_consistent_containing pat cks

let maximum_of_set pat cks = Consistency.max_consistent_containing pat cks

module Rgraph = Rdt_pattern.Rgraph

let minimum_by_tdv pat cks =
  let n = Pattern.n pat in
  let pinned = Consistency.pin_set pat cks in
  let tdv = Tdv.compute pat in
  let v = Array.make n 0 in
  List.iter
    (fun c ->
      let vec = Tdv.at tdv c in
      for j = 0 to n - 1 do
        if vec.(j) > v.(j) then v.(j) <- vec.(j)
      done)
    cks;
  (* a member whose entry was pushed above its own index cannot coexist
     with the others *)
  let ok = ref true in
  Array.iteri (fun i x -> if x >= 0 && v.(i) <> x then ok := false) pinned;
  if !ok then Some v else None

let maximum_by_rgraph pat cks =
  let n = Pattern.n pat in
  let pinned = Consistency.pin_set pat cks in
  let g = Rgraph.build pat in
  let v = Array.init n (fun j -> Pattern.last_index pat j) in
  List.iter
    (fun (i, x) ->
      if x < Pattern.last_index pat i then begin
        (* everything R-reachable from C_{i,x+1} must be undone; what it
           reaches of a process is upward closed, so the first hit is the
           earliest checkpoint to undo (none: y = last + 1, no change) *)
        for j = 0 to n - 1 do
          let y = ref 0 in
          while !y <= Pattern.last_index pat j && not (Rgraph.reaches g (i, x + 1) (j, !y)) do
            incr y
          done;
          v.(j) <- min v.(j) (!y - 1)
        done
      end)
    cks;
  let ok = ref true in
  Array.iteri
    (fun j x ->
      if x < 0 then ok := false
      else if pinned.(j) >= 0 && x <> pinned.(j) then
        if x < pinned.(j) then ok := false
        else (* cannot happen: the member's own successor reaches itself *)
          v.(j) <- pinned.(j))
    v;
  if !ok then Some v else None

let corollary_holds pat =
  let tdv = Tdv.compute pat in
  let ok = ref true in
  Pattern.iter_ckpts pat (fun c ->
      if !ok then begin
        let id = (c.Ptypes.owner, c.Ptypes.index) in
        let online = Array.copy (Tdv.at tdv id) in
        match minimum pat id with
        | None -> ok := false
        | Some v -> if v <> online then ok := false
      end);
  !ok
