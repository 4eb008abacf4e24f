(* Fixed-Dependency-Interval: the transitive dependency vector of an
   interval is frozen at the interval's first event — any arriving message
   carrying a new dependency forces a checkpoint, whether or not the
   process has sent anything.  Strictly more conservative than FDAS. *)

type state = { pid : int; tdv : int array }

let name = "fdi"
let describe = "fixed dependency vector per interval (force on any new dependency)"
let ensures_rdt = true
let ensures_no_useless = true

let create ~n ~pid = { pid; tdv = Array.make n 0 }

let copy st = { st with tdv = Array.copy st.tdv }

let on_checkpoint st = st.tdv.(st.pid) <- st.tdv.(st.pid) + 1

let make_payload st ~dst:_ = Control.Tdv (Array.copy st.tdv)

let force_after_send = false

let payload_tdv = function
  | Control.Tdv v -> v
  | Control.Nothing | Control.Full _ ->
      invalid_arg "Fdi: unexpected payload"

let must_force st ~src:_ payload =
  Predicates.c_fdi ~tdv:st.tdv ~m_tdv:(payload_tdv payload)

let absorb st ~src:_ payload =
  let m_tdv = payload_tdv payload in
  for k = 0 to Array.length st.tdv - 1 do
    if m_tdv.(k) > st.tdv.(k) then st.tdv.(k) <- m_tdv.(k)
  done

let tdv st = Some (Array.copy st.tdv)

let payload_bits ~n = 32 * n

let predicates st ~src:_ payload =
  let m_tdv = payload_tdv payload in
  [ ("c_fdi", Predicates.c_fdi ~tdv:st.tdv ~m_tdv) ]
