(* The paper's protocol (Figure 6) and its two weaker variants (Section 5.1).

   On top of the transitive dependency vector, each process tracks:
   - [sent_to.(j)]   — sent to P_j since the last checkpoint;
   - [simple.(k)]    — every causal chain from C_{k,tdv.(k)} to the current
                       state is simple (no checkpoint between a delivery
                       and the following send along the chain);
   - [causal.(k).(l)] — to this process's knowledge there is an on-line
                       trackable R-path C_{k,tdv.(k)} ~> C_{l,tdv.(l)};
   each a packed bit row ([Control]), [causal] the n rows flat.

   An arriving message [m] forces a checkpoint iff C1 holds,
     C1: exists j with sent_to.(j) and exists k with m.tdv.(k) > tdv.(k)
         and not m.causal.(k).(j)
   (a non-causal chain from P_k to P_j, breakable here, with no causal
   sibling known to the sender), or the variant's own predicate for the
   chains C1 cannot see does: C2 in [Full], C2' in [V1] (see
   [Predicates]).  [V2] has neither, and holds the diagonal of [causal]
   false, so that C1 also fires for k = j: a new dependency on a process
   sent to, precisely the chain C2 breaks.  The variant is read once per
   call, never inside the row loops. *)

type variant = Full | V1 | V2

type state = {
  variant : variant;
  n : int;
  pid : int;
  tdv : int array;
  sent_to : int array;
  simple : int array;
  causal : int array;
}

let mem = Control.mem and set = Control.set and clear = Control.clear

(* keep only bit [k] of the row at [at] *)
let isolate a ~at ~w k =
  let keep = mem a ~at k in
  Array.fill a at w 0;
  if keep then set a ~at k

let create variant ~n ~pid =
  let w = Control.words ~n in
  let st =
    {
      variant;
      n;
      pid;
      tdv = Array.make n 0;
      sent_to = Array.make w 0;
      simple = (if variant = Full then Array.make w 0 else [||]);
      causal = Array.make (n * w) 0;
    }
  in
  if variant = Full then set st.simple ~at:0 pid;
  if variant <> V2 then for k = 0 to n - 1 do set st.causal ~at:(k * w) k done;
  st

let copy st =
  let c = Array.copy in
  { st with tdv = c st.tdv; sent_to = c st.sent_to; simple = c st.simple; causal = c st.causal }

(* [causal.(pid).(pid)] is left alone: true in [Full] and [V1], and
   already false in [V2] *)
let on_checkpoint st =
  let w = Array.length st.sent_to in
  Array.fill st.sent_to 0 w 0;
  if st.variant = Full then isolate st.simple ~at:0 ~w st.pid;
  isolate st.causal ~at:(st.pid * w) ~w st.pid;
  st.tdv.(st.pid) <- st.tdv.(st.pid) + 1

let make_payload st ~dst =
  set st.sent_to ~at:0 dst;
  Control.Full
    { tdv = Array.copy st.tdv; simple = Array.copy st.simple; causal = Array.copy st.causal }

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
  let full = st.variant = Full and w = Array.length st.sent_to and causal = st.causal in
  for k = 0 to st.n - 1 do
    let row = k * w in
    if m_tdv.(k) > st.tdv.(k) then begin
      if full then (if mem m_simple ~at:0 k then set else clear) st.simple ~at:0 k;
      st.tdv.(k) <- m_tdv.(k);
      Array.blit m_causal row causal row w
    end
    else if m_tdv.(k) = st.tdv.(k) then begin
      if full && not (mem m_simple ~at:0 k) then clear st.simple ~at:0 k;
      for i = row to row + w - 1 do
        causal.(i) <- causal.(i) lor m_causal.(i)
      done
    end
  done;
  set causal ~at:(src * w) st.pid;
  for l = 0 to st.n - 1 do
    if mem causal ~at:(l * w) src then set causal ~at:(l * w) st.pid
  done;
  if st.variant = V2 then for k = 0 to st.n - 1 do clear causal ~at:(k * w) k done

let predicates st ~src:_ payload =
  let module P = Predicates in
  let m_tdv, m_simple, m_causal = fields payload in
  let after_first_send = Array.exists (fun word -> word <> 0) st.sent_to in
  P.bit_if (c1 st ~m_tdv ~m_causal) P.c1_bit
  lor P.bit_if (P.c_fdas ~after_first_send ~tdv:st.tdv ~m_tdv) P.c_fdas_bit
  lor P.bit_if (P.c_fdi ~tdv:st.tdv ~m_tdv) P.c_fdi_bit
  lor
  match st.variant with
  | Full -> P.bit_if (c2 st ~m_tdv ~m_simple) P.c2_bit lor P.bit_if (c2' st ~m_tdv) P.c2'_bit
  | V1 -> P.bit_if (c2' st ~m_tdv) P.c2'_bit
  | V2 -> 0

let protocol variant : (module Protocol.S with type state = state) =
  (module struct
    type nonrec state = state

    let name, describe =
      match variant with
      | Full -> ("bhmr", "Baldoni-Helary-Mostefaoui-Raynal protocol (C1 or C2)")
      | V1 -> ("bhmr-v1", "variant 1: C1 or C2' (no simple array)")
      | V2 -> ("bhmr-v2", "variant 2: C1 only, causal diagonal held false")

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
    let evaluated =
      Predicates.(c1_bit lor c_fdas_bit lor c_fdi_bit
                  lor match variant with Full -> c2_bit lor c2'_bit | V1 -> c2'_bit | V2 -> 0)
    let predicates = predicates
  end)

let full : Protocol.t = (module (val protocol Full))
let v1 : Protocol.t = (module (val protocol V1))
let v2 : Protocol.t = (module (val protocol V2))
