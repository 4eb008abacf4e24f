(* Sparse TDV replay.  Live vectors, message payloads and per-checkpoint
   snapshots are sparse {!Rdt_dist.Vclock}s: a checkpoint's vector costs
   O(entries its interval actually depends on), not O(n), so the offline
   replay of an n = 10^4 pattern allocates proportionally to the causal
   spread instead of (ckpts + msgs) * n words.  [at] still hands out the
   dense [int array] of the mli — materialized on first request and
   memoized, since callers compare those arrays structurally. *)

module Vclock = Rdt_dist.Vclock

type t = {
  pat : Pattern.t;
  snapshots : Vclock.t array array; (* snapshots.(i).(x) = TDV_{i,x} *)
  dense : int array option array array; (* memoized [at] views *)
}

(* Seeds the snapshot, payload and frozen arrays.  Module-level, so old
   by the time a run is checked: an [Array.make] of more than 256 words
   seeded with a young block runs a minor collection first.  Never
   handed out: every slot is written before it is read. *)
let dummy = Vclock.create ~n:1

let compute pat =
  let n = Pattern.n pat in
  let vectors = Array.init n (fun _ -> Vclock.create ~n) in
  (* Entry i of P_i's vector is the index of the current interval; it is 0
     until the initial checkpoint C_{i,0} is taken (first event of each
     process), after which it is x+1 for the last checkpoint x. *)
  let snapshots =
    Array.init n (fun i -> Array.map (fun _ -> dummy) (Pattern.checkpoints pat i))
  in
  let payloads = Array.make (Pattern.num_messages pat) dummy in
  (* Payloads and snapshots are never mutated, so P_i hands out one
     frozen copy of its vector until the vector next changes (at a
     checkpoint or a delivery); [frozen.(i) == dummy] means none is
     current. *)
  let frozen = Array.make n dummy in
  let freeze i =
    if frozen.(i) == dummy then frozen.(i) <- Vclock.copy vectors.(i);
    frozen.(i)
  in
  Pattern.iter_in_order pat (fun i _pos ev ->
      match ev with
      | Types.Ckpt x ->
          snapshots.(i).(x) <- freeze i;
          Vclock.set vectors.(i) i (x + 1);
          frozen.(i) <- dummy
      | Types.Send id -> payloads.(id) <- freeze i
      | Types.Recv id ->
          Vclock.merge vectors.(i) payloads.(id);
          frozen.(i) <- dummy
      | Types.Internal -> ());
  {
    pat;
    snapshots;
    dense = Array.map (Array.map (fun _ -> None)) snapshots;
  }

let check_ckpt t (i, x) =
  if not (Pattern.has_ckpt t.pat (i, x)) then
    invalid_arg (Printf.sprintf "Tdv.at: C(%d,%d) does not exist" i x)

let snapshot t (i, x) =
  check_ckpt t (i, x);
  t.snapshots.(i).(x)

let at t (i, x) =
  check_ckpt t (i, x);
  match t.dense.(i).(x) with
  | Some a -> a
  | None ->
      let a = Vclock.to_array t.snapshots.(i).(x) in
      t.dense.(i).(x) <- Some a;
      a

let tracks ~(tracked : int) x = tracked >= x

(* entry j of TDV_{j,y} is y: no lookup, and no existence check *)
let trackable t (i, x) (j, y) =
  let tracked =
    if i = j then y
    else begin
      check_ckpt t (j, y);
      Vclock.get t.snapshots.(j).(y) i
    end
  in
  tracks ~tracked x
