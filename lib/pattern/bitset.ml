(* Chunked, Roaring-style compressed bitset.

   The universe [0, capacity) is cut into chunks of 4096 indices.  A chunk
   is materialized only once a member lands in it, as either

   - [Sparse]: a sorted array of the member's low 12 bits — O(members)
     words while the chunk holds fewer than [promote_at] elements; or
   - [Dense]: a 512-byte bitmap (64 words of 64 bits), the representation
     of the old flat implementation, promoted to when a sparse chunk would
     outgrow the bitmap's footprint.

   An empty set over n elements therefore costs O(n / 4096) words instead
   of O(n / 64): the per-node reached-by sets of the online checker stay
   proportional to what they actually contain, which is what makes
   n = 10^4 runs allocate linearly.  ({!Rgraph}'s reachability uses none.)
   The observable semantics are those of the dense implementation, bit for
   bit; the old code survives as the differential-test reference
   [test/helpers/dense_bitset.ml]. *)

let chunk_bits = 12

let chunk_size = 1 lsl chunk_bits (* 4096 *)

let chunk_mask = chunk_size - 1

let chunk_words = chunk_size / 64 (* 64 words = 512 bytes *)

(* A sparse chunk of exactly [promote_at] members occupies the same
   8 * 64 bytes as the bitmap it is promoted to; beyond that, dense is
   both smaller and faster. *)
let promote_at = 64

type chunk =
  | Sparse of { mutable elts : int array; mutable len : int } (* sorted low bits *)
  | Dense of Bytes.t

type t = { mutable chunks : chunk option array; mutable capacity : int }

let slots_for n = (n + chunk_mask) lsr chunk_bits

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { chunks = Array.make (slots_for n) None; capacity = n }

let capacity t = t.capacity

let ensure_capacity t n =
  if n > t.capacity then begin
    let old_slots = Array.length t.chunks in
    let new_slots = slots_for n in
    if new_slots > old_slots then begin
      let chunks = Array.make new_slots None in
      Array.blit t.chunks 0 chunks 0 old_slots;
      t.chunks <- chunks
    end;
    t.capacity <- n
  end

let check t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitset: index out of bounds"

(* ---- sparse-chunk primitives ------------------------------------- *)

(* First position in [elts.(0..len)] holding a value >= [x]. *)
let lower_bound elts len x =
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if elts.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let sparse_mem s len x =
  let p = lower_bound s len x in
  p < len && s.(p) = x

let dense_of_sparse elts len =
  let b = Bytes.make (8 * chunk_words) '\000' in
  for k = 0 to len - 1 do
    let x = elts.(k) in
    let w = x lsr 6 and bit = x land 63 in
    Bytes.set_int64_le b (8 * w)
      (Int64.logor (Bytes.get_int64_le b (8 * w)) (Int64.shift_left 1L bit))
  done;
  b

(* ---- per-chunk add / mem / remove -------------------------------- *)

let chunk_add t slot low =
  match t.chunks.(slot) with
  | None ->
      let elts = Array.make 4 0 in
      elts.(0) <- low;
      t.chunks.(slot) <- Some (Sparse { elts; len = 1 })
  | Some (Dense b) ->
      let w = low lsr 6 and bit = low land 63 in
      Bytes.set_int64_le b (8 * w)
        (Int64.logor (Bytes.get_int64_le b (8 * w)) (Int64.shift_left 1L bit))
  | Some (Sparse s) ->
      let p = lower_bound s.elts s.len low in
      if not (p < s.len && s.elts.(p) = low) then
        if s.len = promote_at then begin
          let b = dense_of_sparse s.elts s.len in
          let w = low lsr 6 and bit = low land 63 in
          Bytes.set_int64_le b (8 * w)
            (Int64.logor (Bytes.get_int64_le b (8 * w)) (Int64.shift_left 1L bit));
          t.chunks.(slot) <- Some (Dense b)
        end
        else begin
          if s.len = Array.length s.elts then begin
            let bigger = Array.make (2 * Array.length s.elts) 0 in
            Array.blit s.elts 0 bigger 0 s.len;
            s.elts <- bigger
          end;
          Array.blit s.elts p s.elts (p + 1) (s.len - p);
          s.elts.(p) <- low;
          s.len <- s.len + 1
        end

let mem t i =
  check t i;
  match t.chunks.(i lsr chunk_bits) with
  | None -> false
  | Some (Sparse s) -> sparse_mem s.elts s.len (i land chunk_mask)
  | Some (Dense b) ->
      let low = i land chunk_mask in
      let w = low lsr 6 and bit = low land 63 in
      Int64.logand (Bytes.get_int64_le b (8 * w)) (Int64.shift_left 1L bit) <> 0L

let add t i =
  check t i;
  chunk_add t (i lsr chunk_bits) (i land chunk_mask)

let remove t i =
  check t i;
  match t.chunks.(i lsr chunk_bits) with
  | None -> ()
  | Some (Dense b) ->
      let low = i land chunk_mask in
      let w = low lsr 6 and bit = low land 63 in
      Bytes.set_int64_le b (8 * w)
        (Int64.logand (Bytes.get_int64_le b (8 * w))
           (Int64.lognot (Int64.shift_left 1L bit)))
  | Some (Sparse s) ->
      let low = i land chunk_mask in
      let p = lower_bound s.elts s.len low in
      if p < s.len && s.elts.(p) = low then begin
        Array.blit s.elts (p + 1) s.elts p (s.len - p - 1);
        s.len <- s.len - 1
      end

(* ---- iteration ---------------------------------------------------- *)

(* [f] on [base + k] for every set bit k of [half], a 32-bit word held
   as a native int: nothing is boxed, so iteration allocates nothing. *)
let rec bits_of_half f base half =
  if half <> 0 then begin
    if half land 1 <> 0 then f base;
    bits_of_half f (base + 1) (half lsr 1)
  end

let chunk_iter f base = function
  | None -> ()
  | Some (Sparse s) ->
      for k = 0 to s.len - 1 do
        f (base + s.elts.(k))
      done
  | Some (Dense b) ->
      for h = 0 to (2 * chunk_words) - 1 do
        bits_of_half f (base + (32 * h))
          (Bytes.get_uint16_le b (4 * h) lor (Bytes.get_uint16_le b ((4 * h) + 2) lsl 16))
      done

let iter f t =
  for slot = 0 to Array.length t.chunks - 1 do
    chunk_iter f (slot lsl chunk_bits) t.chunks.(slot)
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

(* ---- cardinal / equality ----------------------------------------- *)

let popcount64 x =
  let x = Int64.sub x (Int64.logand (Int64.shift_right_logical x 1) 0x5555555555555555L) in
  let x =
    Int64.add
      (Int64.logand x 0x3333333333333333L)
      (Int64.logand (Int64.shift_right_logical x 2) 0x3333333333333333L)
  in
  let x = Int64.logand (Int64.add x (Int64.shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL in
  Int64.to_int (Int64.shift_right_logical (Int64.mul x 0x0101010101010101L) 56)

let chunk_cardinal = function
  | None -> 0
  | Some (Sparse s) -> s.len
  | Some (Dense b) ->
      let total = ref 0 in
      for w = 0 to chunk_words - 1 do
        total := !total + popcount64 (Bytes.get_int64_le b (8 * w))
      done;
      !total

let cardinal t =
  let total = ref 0 in
  Array.iter (fun c -> total := !total + chunk_cardinal c) t.chunks;
  !total

(* Equality is over contents, not representation: a sparse chunk, the
   dense chunk it would promote to, an all-zero dense chunk and a missing
   chunk can all describe the same set. *)
let chunk_word base = function
  | None -> 0L
  | Some (Dense b) -> Bytes.get_int64_le b (8 * base)
  | Some (Sparse s) ->
      let lo = base * 64 in
      let p = ref (lower_bound s.elts s.len lo) in
      let word = ref 0L in
      while !p < s.len && s.elts.(!p) < lo + 64 do
        word := Int64.logor !word (Int64.shift_left 1L (s.elts.(!p) - lo));
        incr p
      done;
      !word

let equal a b =
  a.capacity = b.capacity
  &&
  let slots = slots_for a.capacity in
  let rec slot_eq slot =
    slot >= slots
    ||
    let ca = a.chunks.(slot) and cb = b.chunks.(slot) in
    let rec word_eq w =
      w >= chunk_words || (chunk_word w ca = chunk_word w cb && word_eq (w + 1))
    in
    word_eq 0 && slot_eq (slot + 1)
  in
  slot_eq 0

let copy t =
  {
    capacity = t.capacity;
    chunks =
      Array.map
        (function
          | None -> None
          | Some (Dense b) -> Some (Dense (Bytes.sub b 0 (Bytes.length b)))
          | Some (Sparse s) -> Some (Sparse { elts = Array.sub s.elts 0 (max 1 s.len); len = s.len }))
        t.chunks;
  }

(* ---- union -------------------------------------------------------- *)

(* OR a dense bitmap into [db] word by word; true iff [db] changed. *)
let dense_or db sb =
  let changed = ref false in
  for w = 0 to chunk_words - 1 do
    let d = Bytes.get_int64_le db (8 * w) in
    let u = Int64.logor d (Bytes.get_int64_le sb (8 * w)) in
    if u <> d then begin
      Bytes.set_int64_le db (8 * w) u;
      changed := true
    end
  done;
  !changed

let chunk_is_empty = function
  | Sparse s -> s.len = 0
  | Dense b ->
      let rec zero w = w >= chunk_words || (Bytes.get_int64_le b (8 * w) = 0L && zero (w + 1)) in
      zero 0

(* Union [src]'s chunk [sc] into [dst]'s slot [slot]; true iff [dst]
   changed.  No path walks or allocates per element. *)
let chunk_union_into t slot sc =
  match sc with
  | None -> false
  | Some src_chunk -> (
      match t.chunks.(slot) with
      | None ->
          if chunk_is_empty src_chunk then false
          else begin
            t.chunks.(slot) <-
              Some
                (match src_chunk with
                | Dense b -> Dense (Bytes.sub b 0 (Bytes.length b))
                | Sparse s -> Sparse { elts = Array.sub s.elts 0 s.len; len = s.len });
            true
          end
      | Some (Dense db) -> (
          match src_chunk with
          | Dense sb -> dense_or db sb
          | Sparse s ->
              let changed = ref false in
              for k = 0 to s.len - 1 do
                let x = s.elts.(k) in
                let w = x lsr 6 and bit = x land 63 in
                let d = Bytes.get_int64_le db (8 * w) in
                if Int64.logand d (Int64.shift_left 1L bit) = 0L then begin
                  Bytes.set_int64_le db (8 * w) (Int64.logor d (Int64.shift_left 1L bit));
                  changed := true
                end
              done;
              !changed)
      | Some (Sparse d) -> (
          match src_chunk with
          | Sparse s ->
              (* merge two sorted arrays *)
              let merged = Array.make (d.len + s.len) 0 in
              let i = ref 0 and j = ref 0 and m = ref 0 in
              while !i < d.len || !j < s.len do
                if !j >= s.len || (!i < d.len && d.elts.(!i) < s.elts.(!j)) then begin
                  merged.(!m) <- d.elts.(!i);
                  incr i
                end
                else begin
                  merged.(!m) <- s.elts.(!j);
                  if !i < d.len && d.elts.(!i) = s.elts.(!j) then incr i;
                  incr j
                end;
                incr m
              done;
              if !m = d.len then false
              else begin
                if !m > promote_at then t.chunks.(slot) <- Some (Dense (dense_of_sparse merged !m))
                else begin
                  d.elts <- merged;
                  d.len <- !m
                end;
                true
              end
          | Dense sb ->
              (* promote the destination, then OR the bitmaps *)
              let db = dense_of_sparse d.elts d.len in
              t.chunks.(slot) <- Some (Dense db);
              dense_or db sb))

let union_into dst src =
  if src.capacity > dst.capacity then invalid_arg "Bitset.union_into: capacity mismatch";
  let changed = ref false in
  for slot = 0 to Array.length src.chunks - 1 do
    if chunk_union_into dst slot src.chunks.(slot) then changed := true
  done;
  !changed
