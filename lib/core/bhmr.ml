(* The paper's protocol (Figure 6) and its two weaker variants (Section 5.1).

   On top of the transitive dependency vector, each process tracks:
   - [sent_to.(j)]   — sent to P_j since the last checkpoint;
   - [simple.(k)]    — every causal chain from C_{k,tdv.(k)} to the current
                       state is simple (no checkpoint between a delivery
                       and the following send along the chain);
   - [causal.(k).(l)] — to this process's knowledge there is an on-line
                       trackable R-path C_{k,tdv.(k)} ~> C_{l,tdv.(l)}.

   An arriving message [m] forces a checkpoint iff C1 holds, or the
   variant's own predicate for the chains C1 cannot see does:

     C1: exists j with sent_to.(j) and exists k with m.tdv.(k) > tdv.(k)
         and not m.causal.(k).(j)
         (a non-causal chain from P_k to P_j, breakable here, with no
         causal sibling known to the sender).

   - [Full] (the paper's protocol) adds
     C2: m.tdv.(pid) = tdv.(pid) and not m.simple.(pid)
         (a causal chain left the current interval and came back having
         crossed a checkpoint: the resulting non-causal chain from some
         C_{k,z} to C_{k,z-1} is breakable only by this process).
   - [V1] (suggested by Y.-M. Wang) drops [simple] and adds
     C2': m.tdv.(pid) = tdv.(pid) and exists k with m.tdv.(k) > tdv.(k)
         (a causal chain returned to its own sending interval while
         carrying any new dependency).  C2 implies C2', so V1 forces at
         least as often as [Full] but piggybacks n fewer bits.
   - [V2] drops [simple] and C2, and holds the diagonal of [causal]
     permanently false.  C1 then also fires for k = j: the process forces
     when it has sent to P_j and [m] brings a new dependency on P_j
     itself, which is precisely the chain C2 used to break.

   The variant is read once per call, never inside the O(n^2) loops. *)

type variant = Full | V1 | V2

type state = {
  variant : variant;
  n : int;
  pid : int;
  tdv : int array;
  sent_to : bool array;
  simple : bool array; (* [||] unless [Full] *)
  causal : bool array array;
}

let create variant ~n ~pid =
  let diagonal = variant <> V2 in
  {
    variant;
    n;
    pid;
    tdv = Array.make n 0;
    sent_to = Array.make n false;
    simple = (if variant = Full then Array.init n (fun k -> k = pid) else [||]);
    causal = Array.init n (fun k -> Array.init n (fun l -> diagonal && k = l));
  }

let copy st =
  {
    st with
    tdv = Array.copy st.tdv;
    sent_to = Array.copy st.sent_to;
    simple = Array.copy st.simple;
    causal = Control.copy_matrix st.causal;
  }

(* [causal.(pid).(pid)] is left alone: true in [Full] and [V1], and
   already false in [V2] *)
let on_checkpoint st =
  Array.fill st.sent_to 0 st.n false;
  let full = st.variant = Full in
  for j = 0 to st.n - 1 do
    if j <> st.pid then begin
      if full then st.simple.(j) <- false;
      st.causal.(st.pid).(j) <- false
    end
  done;
  st.tdv.(st.pid) <- st.tdv.(st.pid) + 1

let make_payload st ~dst =
  st.sent_to.(dst) <- true;
  Control.Full
    {
      tdv = Array.copy st.tdv;
      simple = Array.copy st.simple;
      causal = Control.copy_matrix st.causal;
    }

let fields = function
  | Control.Full { tdv; simple; causal } -> (tdv, simple, causal)
  | Control.Nothing | Control.Tdv _ -> invalid_arg "Bhmr: unexpected payload"

let c1 st ~m_tdv ~m_causal = Predicates.c1 ~sent_to:st.sent_to ~tdv:st.tdv ~m_tdv ~m_causal
let c2 st ~m_tdv ~m_simple = Predicates.c2 ~pid:st.pid ~tdv:st.tdv ~m_tdv ~m_simple
let c2' st ~m_tdv = Predicates.c2' ~pid:st.pid ~tdv:st.tdv ~m_tdv

let must_force st ~src:_ payload =
  let m_tdv, m_simple, m_causal = fields payload in
  c1 st ~m_tdv ~m_causal
  ||
  match st.variant with
  | Full -> c2 st ~m_tdv ~m_simple
  | V1 -> c2' st ~m_tdv
  | V2 -> false

let absorb st ~src payload =
  let m_tdv, m_simple, m_causal = fields payload in
  (* before the merge below overwrites [tdv] *)
  if st.variant = Full then
    for k = 0 to st.n - 1 do
      if m_tdv.(k) > st.tdv.(k) then st.simple.(k) <- m_simple.(k)
      else if m_tdv.(k) = st.tdv.(k) then st.simple.(k) <- st.simple.(k) && m_simple.(k)
    done;
  for k = 0 to st.n - 1 do
    if m_tdv.(k) > st.tdv.(k) then begin
      st.tdv.(k) <- m_tdv.(k);
      Array.blit m_causal.(k) 0 st.causal.(k) 0 st.n
    end
    else if m_tdv.(k) = st.tdv.(k) then
      for l = 0 to st.n - 1 do
        st.causal.(k).(l) <- st.causal.(k).(l) || m_causal.(k).(l)
      done
  done;
  st.causal.(src).(st.pid) <- true;
  for l = 0 to st.n - 1 do
    st.causal.(l).(st.pid) <- st.causal.(l).(st.pid) || st.causal.(l).(src)
  done;
  if st.variant = V2 then
    for k = 0 to st.n - 1 do
      st.causal.(k).(k) <- false
    done

let predicates st ~src:_ payload =
  let m_tdv, m_simple, m_causal = fields payload in
  let after_first_send = Array.exists Fun.id st.sent_to in
  let c1 = ("c1", c1 st ~m_tdv ~m_causal) in
  let rest =
    [
      ("c_fdas", Predicates.c_fdas ~after_first_send ~tdv:st.tdv ~m_tdv);
      ("c_fdi", Predicates.c_fdi ~tdv:st.tdv ~m_tdv);
    ]
  in
  match st.variant with
  | Full -> c1 :: ("c2", c2 st ~m_tdv ~m_simple) :: ("c2'", c2' st ~m_tdv) :: rest
  | V1 -> c1 :: ("c2'", c2' st ~m_tdv) :: rest
  | V2 -> c1 :: rest

let protocol variant ~name ~describe : Protocol.t =
  (module struct
    type nonrec state = state

    let name = name
    let describe = describe
    let ensures_rdt = true
    let ensures_no_useless = true
    let create = create variant
    let copy = copy
    let on_checkpoint = on_checkpoint
    let make_payload = make_payload
    let force_after_send = false
    let must_force = must_force
    let absorb = absorb
    let tdv st = Some (Array.copy st.tdv)
    let payload_bits ~n = (32 * n) + (if variant = Full then n else 0) + (n * n)
    let predicates = predicates
  end)

let full = protocol Full ~name:"bhmr" ~describe:"Baldoni-Helary-Mostefaoui-Raynal protocol (C1 or C2)"
let v1 = protocol V1 ~name:"bhmr-v1" ~describe:"variant 1: C1 or C2' (no simple array)"
let v2 = protocol V2 ~name:"bhmr-v2" ~describe:"variant 2: C1 only, causal diagonal held false"
