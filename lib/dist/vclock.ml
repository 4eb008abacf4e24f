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

let of_sorted ~n idx vals =
  let nnz = Array.length idx in
  if n <= 0 then invalid_arg "Vclock.of_sorted: n must be positive";
  if Array.length vals <> nnz then invalid_arg "Vclock.of_sorted: length mismatch";
  for k = 0 to nnz - 1 do
    if idx.(k) < 0 || idx.(k) >= n || (k > 0 && idx.(k) <= idx.(k - 1)) || vals.(k) <= 0 then
      invalid_arg "Vclock.of_sorted: not strictly ascending nonzero entries"
  done;
  { n; idx; vals; nnz }

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

(* Room for [m] entries, growing geometrically so a run of inserts or
   joins amortizes its copies. *)
let reserve v m =
  if Array.length v.idx < m then begin
    let cap = Int.max m (Int.max 4 (2 * Array.length v.idx)) in
    let idx = Array.make cap 0 and vals = Array.make cap 0 in
    Array.blit v.idx 0 idx 0 v.nnz;
    Array.blit v.vals 0 vals 0 v.nnz;
    v.idx <- idx;
    v.vals <- vals
  end

let insert_at v k i x =
  reserve v (v.nnz + 1);
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

(* One linear pass to size the union (and to learn whether [w] raises
   anything), then the merge back-to-front, in place: once [w] is
   exhausted, the remaining [v] prefix (slots 0..k) is already where it
   belongs. *)
let join_sparse v w ~f =
  let i = ref 0 and j = ref 0 and union = ref 0 and rises = ref false in
  while !i < v.nnz || !j < w.nnz do
    let vi = if !i < v.nnz then v.idx.(!i) else max_int in
    let wi = if !j < w.nnz then w.idx.(!j) else max_int in
    if vi < wi then Stdlib.incr i
    else if wi < vi then begin
      rises := true;
      Stdlib.incr j
    end
    else begin
      if w.vals.(!j) > v.vals.(!i) then rises := true;
      Stdlib.incr i;
      Stdlib.incr j
    end;
    Stdlib.incr union
  done;
  if !rises then begin
    let m = !union in
    reserve v m;
    let i = ref (v.nnz - 1) and j = ref (w.nnz - 1) and k = ref (m - 1) in
    while !j >= 0 do
      let wi = w.idx.(!j) and x = w.vals.(!j) in
      if !i >= 0 && v.idx.(!i) > wi then begin
        v.idx.(!k) <- v.idx.(!i);
        v.vals.(!k) <- v.vals.(!i);
        Stdlib.decr i
      end
      else begin
        let hit = !i >= 0 && v.idx.(!i) = wi in
        let old = if hit then v.vals.(!i) else 0 in
        if hit then Stdlib.decr i;
        v.idx.(!k) <- wi;
        if x > old then begin
          v.vals.(!k) <- x;
          f wi x
        end
        else v.vals.(!k) <- old;
        Stdlib.decr j
      end;
      Stdlib.decr k
    done;
    v.nnz <- m
  end

(* Two full vectors store every position in order ([idx.(k) = k]), so
   they join slot by slot. *)
let join v w ~f =
  if v.n <> w.n then invalid_arg "Vclock.join: size mismatch";
  if v.nnz = v.n && w.nnz = v.n then
    for k = 0 to v.n - 1 do
      let x = w.vals.(k) in
      if x > v.vals.(k) then begin
        v.vals.(k) <- x;
        f k x
      end
    done
  else join_sparse v w ~f

let merge v w =
  if v.n <> w.n then invalid_arg "Vclock.merge: size mismatch";
  join v w ~f:(fun _ _ -> ())

let iter2 ~f a b =
  if a.n <> b.n then invalid_arg "Vclock.iter2: size mismatch";
  let j = ref 0 in
  for k = 0 to a.nnz - 1 do
    let i = a.idx.(k) in
    while !j < b.nnz && b.idx.(!j) < i do
      Stdlib.incr j
    done;
    f i a.vals.(k) (if !j < b.nnz && b.idx.(!j) = i then b.vals.(!j) else 0)
  done
