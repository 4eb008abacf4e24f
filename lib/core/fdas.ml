(* Wang's Fixed-Dependency-After-Send [13]: the dependency vector of an
   interval is frozen after the interval's first send.  A message carrying
   a new dependency forces a checkpoint only if the process has already
   sent in the current interval.  This is the reference the paper's
   simulation study (and our harness) normalises against. *)

type state = { pid : int; tdv : int array; mutable after_first_send : bool }

let name = "fdas"
let describe = "Wang's fixed-dependency-after-send"
let ensures_rdt = true
let ensures_no_useless = true

let create ~n ~pid = { pid; tdv = Array.make n 0; after_first_send = false }

let copy st = { st with tdv = Array.copy st.tdv }

let on_checkpoint st =
  st.tdv.(st.pid) <- st.tdv.(st.pid) + 1;
  st.after_first_send <- false

let make_payload st ~dst:_ =
  st.after_first_send <- true;
  Control.Tdv (Array.copy st.tdv)

let force_after_send = false

let payload_tdv = function
  | Control.Tdv v -> v
  | Control.Nothing | Control.Full _ ->
      invalid_arg "Fdas: unexpected payload"

let must_force st ~src:_ payload =
  Predicates.c_fdas ~after_first_send:st.after_first_send ~tdv:st.tdv
    ~m_tdv:(payload_tdv payload)

let absorb st ~src:_ payload =
  let m_tdv = payload_tdv payload in
  for k = 0 to Array.length st.tdv - 1 do
    if m_tdv.(k) > st.tdv.(k) then st.tdv.(k) <- m_tdv.(k)
  done

let tdv st = Some (Array.copy st.tdv)

let payload_bits ~n = 32 * n

let evaluated = Predicates.(c_fdas_bit lor c_fdi_bit)

let predicates st ~src:_ payload =
  let m_tdv = payload_tdv payload in
  Predicates.(
    bit_if (c_fdas ~after_first_send:st.after_first_send ~tdv:st.tdv ~m_tdv) c_fdas_bit
    lor bit_if (c_fdi ~tdv:st.tdv ~m_tdv) c_fdi_bit)
