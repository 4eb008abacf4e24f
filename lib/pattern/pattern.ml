type t = {
  n : int;
  events : Types.event array array;
  gseqs : int array array;
  ckpts : Types.ckpt array array;
  msgs : Types.message array;
  sends : int array array; (* per process, message ids by send position *)
  mutable gorder : (Types.pid * int * Types.event) array option; (* cache *)
}

(* ------------------------------------------------------------------ *)
(* Builder                                                            *)
(* ------------------------------------------------------------------ *)

module Builder = struct
  type pending_msg = {
    p_id : int;
    p_src : int;
    p_dst : int;
    p_send_pos : int;
    p_send_interval : int;
    p_send_gseq : int;
    mutable p_recv_pos : int; (* -1 while in flight *)
    mutable p_recv_interval : int;
    mutable p_recv_gseq : int;
  }

  type proc = {
    mutable evs : Types.event list; (* reversed *)
    mutable evs_gseq : int list; (* reversed *)
    mutable n_events : int;
    mutable cks : Types.ckpt list; (* reversed *)
    mutable n_ckpts : int; (* = current interval index *)
  }

  type b = {
    n : int;
    procs : proc array;
    mutable msgs : pending_msg option array; (* slot = message id *)
    mutable n_msgs : int;
    mutable next_gseq : int;
    mutable frozen : bool;
  }

  let check_pid b i =
    if i < 0 || i >= b.n then invalid_arg "Pattern.Builder: pid out of range"

  let check_live b = if b.frozen then invalid_arg "Pattern.Builder: already finished"

  let push_event b i ev =
    let p = b.procs.(i) in
    let pos = p.n_events in
    p.evs <- ev :: p.evs;
    p.evs_gseq <- b.next_gseq :: p.evs_gseq;
    b.next_gseq <- b.next_gseq + 1;
    p.n_events <- pos + 1;
    pos

  let checkpoint_unchecked ?(kind = Types.Basic) ?tdv ?(time = 0) b i =
    let p = b.procs.(i) in
    let index = p.n_ckpts in
    let pos = push_event b i (Types.Ckpt index) in
    let ck = { Types.owner = i; index; kind; pos; time; tdv } in
    p.cks <- ck :: p.cks;
    p.n_ckpts <- index + 1;
    index

  let create ~n =
    if n <= 0 then invalid_arg "Pattern.Builder.create: n must be positive";
    let b =
      {
        n;
        procs =
          Array.init n (fun _ ->
              { evs = []; evs_gseq = []; n_events = 0; cks = []; n_ckpts = 0 });
        msgs = Array.make 64 None;
        n_msgs = 0;
        next_gseq = 0;
        frozen = false;
      }
    in
    for i = 0 to n - 1 do
      ignore (checkpoint_unchecked ~kind:Types.Initial b i)
    done;
    b

  let checkpoint ?kind ?tdv ?time b i =
    check_live b;
    check_pid b i;
    checkpoint_unchecked ?kind ?tdv ?time b i

  let send ?time:_ b ~src ~dst =
    check_live b;
    check_pid b src;
    check_pid b dst;
    if src = dst then invalid_arg "Pattern.Builder.send: src = dst";
    let id = b.n_msgs in
    let gseq = b.next_gseq in
    let pos = push_event b src (Types.Send id) in
    let m =
      {
        p_id = id;
        p_src = src;
        p_dst = dst;
        p_send_pos = pos;
        p_send_interval = b.procs.(src).n_ckpts;
        p_send_gseq = gseq;
        p_recv_pos = -1;
        p_recv_interval = -1;
        p_recv_gseq = -1;
      }
    in
    if id >= Array.length b.msgs then begin
      (* grow geometrically from the current capacity — never from the
         triggering id, which would tie the new size to the caller *)
      let cap = ref (max 1 (Array.length b.msgs)) in
      while id >= !cap do
        cap := 2 * !cap
      done;
      let bigger = Array.make !cap None in
      Array.blit b.msgs 0 bigger 0 b.n_msgs;
      b.msgs <- bigger
    end;
    b.msgs.(id) <- Some m;
    b.n_msgs <- id + 1;
    id

  let find_msg b h =
    if h < 0 || h >= b.n_msgs then invalid_arg "Pattern.Builder: unknown message handle";
    match b.msgs.(h) with
    | Some m -> m
    | None -> invalid_arg "Pattern.Builder: unknown message handle"

  let recv ?time:_ b h =
    check_live b;
    let m = find_msg b h in
    if m.p_recv_pos >= 0 then invalid_arg "Pattern.Builder.recv: message already delivered";
    let gseq = b.next_gseq in
    let pos = push_event b m.p_dst (Types.Recv h) in
    m.p_recv_pos <- pos;
    m.p_recv_interval <- b.procs.(m.p_dst).n_ckpts;
    m.p_recv_gseq <- gseq

  let internal ?time:_ b i =
    check_live b;
    check_pid b i;
    ignore (push_event b i Types.Internal)

  let in_flight b =
    let out = ref [] in
    for id = b.n_msgs - 1 downto 0 do
      match b.msgs.(id) with
      | Some m when m.p_recv_pos < 0 -> out := id :: !out
      | Some _ | None -> ()
    done;
    !out

  let finish ?(final_checkpoints = true) b =
    check_live b;
    (match in_flight b with
    | [] -> ()
    | _ :: _ -> invalid_arg "Pattern.Builder.finish: undelivered messages remain");
    if final_checkpoints then
      for i = 0 to b.n - 1 do
        let p = b.procs.(i) in
        let last_is_ckpt =
          match p.evs with Types.Ckpt _ :: _ -> true | _ -> false
        in
        if not last_is_ckpt then ignore (checkpoint_unchecked ~kind:Types.Final b i)
      done;
    b.frozen <- true;
    let events = Array.map (fun p -> Array.of_list (List.rev p.evs)) b.procs in
    let gseqs = Array.map (fun p -> Array.of_list (List.rev p.evs_gseq)) b.procs in
    let ckpts = Array.map (fun p -> Array.of_list (List.rev p.cks)) b.procs in
    let msgs =
      Array.init b.n_msgs (fun id ->
          match b.msgs.(id) with
          | None -> assert false
          | Some m ->
              {
                Types.id = m.p_id;
                src = m.p_src;
                dst = m.p_dst;
                send_pos = m.p_send_pos;
                recv_pos = m.p_recv_pos;
                send_interval = m.p_send_interval;
                recv_interval = m.p_recv_interval;
                send_gseq = m.p_send_gseq;
                recv_gseq = m.p_recv_gseq;
              })
    in
    let sends =
      Array.map
        (fun evs ->
          Array.of_list
            (Array.fold_right
               (fun ev acc -> match ev with Types.Send id -> id :: acc | _ -> acc)
               evs []))
        events
    in
    { n = b.n; events; gseqs; ckpts; msgs; sends; gorder = None }
end

(* ------------------------------------------------------------------ *)
(* Accessors                                                          *)
(* ------------------------------------------------------------------ *)

(* Equality must ignore [gorder]: it is a lazily filled
   cache, so two structurally identical patterns can differ on it (one
   was iterated, the other was not).  Polymorphic [=] on [t] sees the
   cache and is therefore wrong; this is the only sanctioned
   comparison (the rdtlint D2 rule flags polymorphic compare at [t]).
   Every remaining field is immutable first-order data, where structural
   comparison is exactly componentwise mathematical equality. *)
let structure t = (t.n, t.events, t.gseqs, t.ckpts, t.msgs, t.sends)

let equal a b = structure a = structure b

let n t = t.n

let events t i = t.events.(i)

let checkpoints t i = t.ckpts.(i)

let last_index t i = Array.length t.ckpts.(i) - 1

let has_ckpt t (i, x) = i >= 0 && i < t.n && x >= 0 && x < Array.length t.ckpts.(i)

let ckpt t ((i, x) as id) =
  if not (has_ckpt t id) then
    invalid_arg (Printf.sprintf "Pattern.ckpt: C(%d,%d) does not exist" i x);
  t.ckpts.(i).(x)

let messages t = t.msgs

let message t id = t.msgs.(id)

let num_messages t = Array.length t.msgs

let num_checkpoints t = Array.fold_left (fun acc a -> acc + Array.length a) 0 t.ckpts

let count_kind t k =
  Array.fold_left
    (fun acc a ->
      Array.fold_left (fun acc c -> if c.Types.kind = k then acc + 1 else acc) acc a)
    0 t.ckpts

let interval_of_pos t i ~pos =
  (* Binary search for the first checkpoint with c.pos >= pos; intervals
     end at their checkpoint, and a checkpoint event belongs to its own
     index. *)
  let cks = t.ckpts.(i) in
  let lo = ref 0 and hi = ref (Array.length cks - 1) in
  if pos > cks.(!hi).Types.pos then
    invalid_arg "Pattern.interval_of_pos: event after final checkpoint";
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cks.(mid).Types.pos >= pos then hi := mid else lo := mid + 1
  done;
  cks.(!lo).Types.index

let sends_of t i = t.sends.(i)

let sends_between t i ~lo ~hi =
  let out = ref [] in
  let arr = t.sends.(i) in
  for k = Array.length arr - 1 downto 0 do
    let m = t.msgs.(arr.(k)) in
    if m.Types.send_pos > lo && m.Types.send_pos < hi then out := m.Types.id :: !out
  done;
  !out

let iter_ckpts t f = Array.iter (fun a -> Array.iter f a) t.ckpts

let fold_ckpts t ~init ~f =
  Array.fold_left (fun acc a -> Array.fold_left f acc a) init t.ckpts

let events_in_gseq_order t =
  match t.gorder with
  | Some a -> a
  | None ->
      let total = Array.fold_left (fun acc a -> acc + Array.length a) 0 t.events in
      let out = Array.make total (0, 0, Types.Internal) in
      let keys = Array.make total 0 in
      let k = ref 0 in
      for i = 0 to t.n - 1 do
        Array.iteri
          (fun pos ev ->
            out.(!k) <- (i, pos, ev);
            keys.(!k) <- t.gseqs.(i).(pos);
            incr k)
          t.events.(i)
      done;
      (* sort [out] by [keys] *)
      let idx = Array.init total (fun i -> i) in
      Array.sort (fun a b -> Int.compare keys.(a) keys.(b)) idx;
      let sorted = Array.map (fun j -> out.(j)) idx in
      t.gorder <- Some sorted;
      sorted

let validate t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let ok = Ok () in
  let check_proc i =
    let cks = t.ckpts.(i) in
    if Array.length cks = 0 then err "process %d has no checkpoint" i
    else begin
      let bad = ref ok in
      Array.iteri
        (fun x c ->
          if c.Types.index <> x then bad := err "process %d: checkpoint index %d at slot %d" i c.Types.index x
          else if c.Types.owner <> i then bad := err "process %d: checkpoint with owner %d" i c.Types.owner
          else
            match t.events.(i).(c.Types.pos) with
            | Types.Ckpt y when y = x -> ()
            | _ -> bad := err "process %d: checkpoint %d position mismatch" i x)
        cks;
      !bad
    end
  in
  let check_msg (m : Types.message) =
    if m.Types.recv_pos < 0 then err "message %d undelivered" m.Types.id
    else if m.Types.recv_gseq <= m.Types.send_gseq then
      err "message %d delivered before sent in the global order" m.Types.id
    else if interval_of_pos t m.Types.src ~pos:m.Types.send_pos <> m.Types.send_interval
    then err "message %d: wrong send interval" m.Types.id
    else if interval_of_pos t m.Types.dst ~pos:m.Types.recv_pos <> m.Types.recv_interval
    then err "message %d: wrong recv interval" m.Types.id
    else ok
  in
  let rec first_error = function
    | [] -> ok
    | r :: rest -> ( match r with Ok () -> first_error rest | Error _ -> r)
  in
  let proc_checks = List.init t.n check_proc in
  let msg_checks = Array.to_list (Array.map check_msg t.msgs) in
  first_error (proc_checks @ msg_checks)

let pp_summary ppf t =
  let total_events = Array.fold_left (fun acc a -> acc + Array.length a) 0 t.events in
  Format.fprintf ppf
    "pattern: %d processes, %d events, %d messages, %d checkpoints (%d basic, %d forced)"
    t.n total_events (Array.length t.msgs) (num_checkpoints t) (count_kind t Types.Basic)
    (count_kind t Types.Forced)
