(* A binary min-heap on the int pair (time, seq).  Heap position k is
   the three ints keys.(3k) = time, keys.(3k+1) = seq and keys.(3k+2) =
   the slot of [payloads] its payload waits in.  Sifting moves only
   ints, so it needs no write barrier and no comparison closure; a
   payload is written once, at [schedule], and read once, at [pop].

   The slot fields of the positions past [size] hold the free slots:
   the slot fields of all [Array.length payloads] positions are always a
   permutation of the slot numbers.  [schedule] takes the slot parked at position
   [size]; [pop] parks the freed one where the heap's last entry was. *)

type 'a t = {
  mutable keys : int array;
  mutable payloads : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

(* Fills the payload slots that hold nothing.  An immediate: seeding a
   large array with a young block makes OCaml run a minor collection
   first, and a popped slot must not keep its payload alive.  (It also
   keeps [payloads] from ever being a flat float array, so every access
   here stays the generic one.) *)
let vacant () : 'a = Obj.magic 0

let create () = { keys = [||]; payloads = [||]; size = 0; next_seq = 0 }

let is_empty q = q.size = 0

let grow q =
  let cap = Array.length q.payloads in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let keys = Array.make (3 * ncap) 0 in
  Array.blit q.keys 0 keys 0 (3 * cap);
  for k = cap to ncap - 1 do
    keys.((3 * k) + 2) <- k
  done;
  let payloads = Array.make ncap (vacant ()) in
  Array.blit q.payloads 0 payloads 0 cap;
  q.keys <- keys;
  q.payloads <- payloads

let[@inline] set (keys : int array) i time seq slot =
  keys.(3 * i) <- time;
  keys.((3 * i) + 1) <- seq;
  keys.((3 * i) + 2) <- slot

let[@inline] move (keys : int array) ~src ~dst =
  set keys dst keys.(3 * src) keys.((3 * src) + 1) keys.((3 * src) + 2)

(* A new entry's seq exceeds every queued one, so it rises only past
   strictly later times. *)
let rec sift_up (keys : int array) i time seq slot =
  let parent = (i - 1) / 2 in
  if i > 0 && time < keys.(3 * parent) then begin
    move keys ~src:parent ~dst:i;
    sift_up keys parent time seq slot
  end
  else set keys i time seq slot

let[@inline] before (keys : int array) i time seq =
  let t = keys.(3 * i) in
  t < time || (t = time && keys.((3 * i) + 1) < seq)

let rec sift_down (keys : int array) size i time seq slot =
  let l = (2 * i) + 1 in
  if l >= size then set keys i time seq slot
  else begin
    let r = l + 1 in
    let c = if r < size && before keys r keys.(3 * l) keys.((3 * l) + 1) then r else l in
    if before keys c time seq then begin
      move keys ~src:c ~dst:i;
      sift_down keys size c time seq slot
    end
    else set keys i time seq slot
  end

let schedule q ~time payload =
  if time < 0 then invalid_arg "Event_queue.schedule: negative time";
  if q.size = Array.length q.payloads then grow q;
  let k = q.size in
  let slot = q.keys.((3 * k) + 2) in
  q.payloads.(slot) <- payload;
  q.size <- k + 1;
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  sift_up q.keys k time seq slot

let pop q =
  if q.size = 0 then None
  else begin
    let keys = q.keys in
    let time = keys.(0) and slot = keys.(2) in
    let payload = q.payloads.(slot) in
    q.payloads.(slot) <- vacant ();
    let last = q.size - 1 in
    q.size <- last;
    if last > 0 then begin
      let l = 3 * last in
      let t = keys.(l) and seq = keys.(l + 1) and s = keys.(l + 2) in
      keys.(l + 2) <- slot;
      sift_down keys last 0 t seq s
    end;
    Some (time, payload)
  end

let peek_time q = if q.size = 0 then None else Some q.keys.(0)
