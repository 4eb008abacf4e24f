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

let compute pat =
  let n = Pattern.n pat in
  let vectors = Array.init n (fun _ -> Vclock.create ~n) in
  (* Entry i of P_i's vector is the index of the current interval; it is 0
     until the initial checkpoint C_{i,0} is taken (first event of each
     process), after which it is x+1 for the last checkpoint x. *)
  let dummy = Vclock.create ~n in
  let snapshots =
    Array.init n (fun i -> Array.map (fun _ -> dummy) (Pattern.checkpoints pat i))
  in
  let payloads = Array.make (Pattern.num_messages pat) dummy in
  let order = Pattern.events_in_gseq_order pat in
  Array.iter
    (fun (i, _pos, ev) ->
      match ev with
      | Types.Ckpt x ->
          snapshots.(i).(x) <- Vclock.copy vectors.(i);
          Vclock.set vectors.(i) i (x + 1)
      | Types.Send id -> payloads.(id) <- Vclock.copy vectors.(i)
      | Types.Recv id -> Vclock.merge vectors.(i) payloads.(id)
      | Types.Internal -> ())
    order;
  {
    pat;
    snapshots;
    dense = Array.map (Array.map (fun _ -> None)) snapshots;
  }

let check_ckpt t (i, x) =
  if not (Pattern.has_ckpt t.pat (i, x)) then
    invalid_arg (Printf.sprintf "Tdv.at: C(%d,%d) does not exist" i x)

let at t (i, x) =
  check_ckpt t (i, x);
  match t.dense.(i).(x) with
  | Some a -> a
  | None ->
      let a = Vclock.to_array t.snapshots.(i).(x) in
      t.dense.(i).(x) <- Some a;
      a

let trackable t (i, x) (j, y) =
  if i = j then x <= y
  else begin
    check_ckpt t (j, y);
    Vclock.get t.snapshots.(j).(y) i >= x
  end
