(* Sparse vector clocks: only the nonzero entries are stored, as parallel
   sorted (index, value) arrays.  At n = 10^4 processes a clock touched by
   a handful of neighbours costs O(touched) words instead of O(n), which
   is what lets every in-flight message of the scaled engine carry a
   dependency vector.  Zero entries are never stored, so the
   representation is canonical.  Sorted arrays — not a hash table — keep
   iteration deterministic (lint rule D1) and [merge] one linear pass. *)

type t = {
  n : int;
  mutable idx : int array; (* sorted, the nonzero positions *)
  mutable vals : int array; (* vals.(k) > 0 is entry idx.(k) *)
  mutable nnz : int;
}

let create ~n =
  if n <= 0 then invalid_arg "Vclock.create: n must be positive";
  { n; idx = [||]; vals = [||]; nnz = 0 }

let to_array v =
  let a = Array.make v.n 0 in
  for k = 0 to v.nnz - 1 do
    a.(v.idx.(k)) <- v.vals.(k)
  done;
  a

let copy v = { v with idx = Array.sub v.idx 0 v.nnz; vals = Array.sub v.vals 0 v.nnz }

let nnz v = v.nnz

(* First slot in [idx.(0..nnz)] holding a position >= [i]. *)
let lower_bound v i =
  let lo = ref 0 and hi = ref v.nnz in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if v.idx.(mid) < i then lo := mid + 1 else hi := mid
  done;
  !lo

let check_index v i = if i < 0 || i >= v.n then invalid_arg "index out of bounds"

let get v i =
  check_index v i;
  let k = lower_bound v i in
  if k < v.nnz && v.idx.(k) = i then v.vals.(k) else 0

let remove_at v k =
  Array.blit v.idx (k + 1) v.idx k (v.nnz - k - 1);
  Array.blit v.vals (k + 1) v.vals k (v.nnz - k - 1);
  v.nnz <- v.nnz - 1

let insert_at v k i x =
  if v.nnz = Array.length v.idx then begin
    let cap = max 4 (2 * v.nnz) in
    let idx = Array.make cap 0 and vals = Array.make cap 0 in
    Array.blit v.idx 0 idx 0 v.nnz;
    Array.blit v.vals 0 vals 0 v.nnz;
    v.idx <- idx;
    v.vals <- vals
  end;
  Array.blit v.idx k v.idx (k + 1) (v.nnz - k);
  Array.blit v.vals k v.vals (k + 1) (v.nnz - k);
  v.idx.(k) <- i;
  v.vals.(k) <- x;
  v.nnz <- v.nnz + 1

let set v i x =
  if x < 0 then invalid_arg "Vclock.set: negative entry";
  check_index v i;
  let k = lower_bound v i in
  if k < v.nnz && v.idx.(k) = i then begin
    if x = 0 then remove_at v k else v.vals.(k) <- x
  end
  else if x <> 0 then insert_at v k i x

let iteri ~f v =
  for k = 0 to v.nnz - 1 do
    f v.idx.(k) v.vals.(k)
  done

let merge v w =
  if v.n <> w.n then invalid_arg "Vclock.merge: size mismatch";
  (* one linear pass: does w add or raise anything, and how many slots
     does the union need? *)
  let i = ref 0 and j = ref 0 and union = ref 0 and needs = ref false in
  while !i < v.nnz || !j < w.nnz do
    let vi = if !i < v.nnz then v.idx.(!i) else max_int in
    let wi = if !j < w.nnz then w.idx.(!j) else max_int in
    if vi < wi then Stdlib.incr i
    else if wi < vi then begin
      needs := true;
      Stdlib.incr j
    end
    else begin
      if w.vals.(!j) > v.vals.(!i) then needs := true;
      Stdlib.incr i;
      Stdlib.incr j
    end;
    Stdlib.incr union
  done;
  if !needs then begin
    let m = !union in
    if Array.length v.idx < m then begin
      (* grow geometrically so a run of merges amortizes its copies *)
      let cap = max m (max 4 (2 * Array.length v.idx)) in
      let idx = Array.make cap 0 and vals = Array.make cap 0 in
      Array.blit v.idx 0 idx 0 v.nnz;
      Array.blit v.vals 0 vals 0 v.nnz;
      v.idx <- idx;
      v.vals <- vals
    end;
    (* merge back-to-front, in place: once w is exhausted, the remaining
       v prefix (slots 0..k) is already where it belongs *)
    let i = ref (v.nnz - 1) and j = ref (w.nnz - 1) and k = ref (m - 1) in
    while !j >= 0 do
      if !i >= 0 && v.idx.(!i) > w.idx.(!j) then begin
        v.idx.(!k) <- v.idx.(!i);
        v.vals.(!k) <- v.vals.(!i);
        Stdlib.decr i
      end
      else if !i >= 0 && v.idx.(!i) = w.idx.(!j) then begin
        v.idx.(!k) <- v.idx.(!i);
        v.vals.(!k) <- max v.vals.(!i) w.vals.(!j);
        Stdlib.decr i;
        Stdlib.decr j
      end
      else begin
        v.idx.(!k) <- w.idx.(!j);
        v.vals.(!k) <- w.vals.(!j);
        Stdlib.decr j
      end;
      Stdlib.decr k
    done;
    v.nnz <- m
  end
