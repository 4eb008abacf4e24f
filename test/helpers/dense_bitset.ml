(* The original dense (flat Bytes bitmap) implementation of
   [Rdt_pattern.Bitset], kept as the differential-testing
   reference for the chunked replacement.  Test-only: production code
   must keep going through [Rdt_pattern.Bitset]. *)

type t = { mutable words : Bytes.t; mutable capacity : int }

let words_for n = (n + 63) / 64

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { words = Bytes.make (8 * words_for n) '\000'; capacity = n }

let capacity t = t.capacity

let ensure_capacity t n =
  if n > t.capacity then begin
    let old_bytes = Bytes.length t.words in
    let new_bytes = 8 * words_for n in
    if new_bytes > old_bytes then begin
      let words = Bytes.make new_bytes '\000' in
      Bytes.blit t.words 0 words 0 old_bytes;
      t.words <- words
    end;
    t.capacity <- n
  end

let check t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitset: index out of bounds"

let get_word t w = Bytes.get_int64_le t.words (8 * w)

let set_word t w v = Bytes.set_int64_le t.words (8 * w) v

let mem t i =
  check t i;
  let w = i / 64 and b = i mod 64 in
  Int64.logand (get_word t w) (Int64.shift_left 1L b) <> 0L

let add t i =
  check t i;
  let w = i / 64 and b = i mod 64 in
  set_word t w (Int64.logor (get_word t w) (Int64.shift_left 1L b))

let remove t i =
  check t i;
  let w = i / 64 and b = i mod 64 in
  set_word t w (Int64.logand (get_word t w) (Int64.lognot (Int64.shift_left 1L b)))

let union_into dst src =
  if src.capacity > dst.capacity then invalid_arg "Bitset.union_into: capacity mismatch";
  let changed = ref false in
  for w = 0 to words_for src.capacity - 1 do
    let d = get_word dst w and s = get_word src w in
    let u = Int64.logor d s in
    if u <> d then begin
      set_word dst w u;
      changed := true
    end
  done;
  !changed

let copy t = { words = Bytes.copy t.words; capacity = t.capacity }

let popcount64 x =
  let x = Int64.sub x (Int64.logand (Int64.shift_right_logical x 1) 0x5555555555555555L) in
  let x =
    Int64.add
      (Int64.logand x 0x3333333333333333L)
      (Int64.logand (Int64.shift_right_logical x 2) 0x3333333333333333L)
  in
  let x = Int64.logand (Int64.add x (Int64.shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL in
  Int64.to_int (Int64.shift_right_logical (Int64.mul x 0x0101010101010101L) 56)

let cardinal t =
  let total = ref 0 in
  for w = 0 to words_for t.capacity - 1 do
    total := !total + popcount64 (get_word t w)
  done;
  !total

let iter f t =
  for w = 0 to words_for t.capacity - 1 do
    let word = ref (get_word t w) in
    while !word <> 0L do
      let b = Int64.logand !word (Int64.neg !word) in
      let rec log2 v acc = if v = 1L then acc else log2 (Int64.shift_right_logical v 1) (acc + 1) in
      let bit = log2 b 0 in
      f ((64 * w) + bit);
      word := Int64.logxor !word b
    done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let to_list t = List.rev (fold (fun i acc -> i :: acc) t [])

let equal a b = a.capacity = b.capacity && Bytes.equal a.words b.words
