(* The BHMR state machine as first written, one bool per bit: the
   reference the packed [Rdt_core.Bhmr] is checked against. *)

type variant = Rdt_core.Bhmr.variant = Full | V1 | V2
type payload = { m_tdv : int array; m_simple : bool array; m_causal : bool array array }

type state = {
  variant : variant;
  n : int;
  pid : int;
  tdv : int array;
  sent_to : bool array;
  simple : bool array;
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

let on_checkpoint st =
  Array.fill st.sent_to 0 st.n false;
  for j = 0 to st.n - 1 do
    if j <> st.pid then begin
      if st.variant = Full then st.simple.(j) <- false;
      st.causal.(st.pid).(j) <- false
    end
  done;
  st.tdv.(st.pid) <- st.tdv.(st.pid) + 1

let make_payload st ~dst =
  st.sent_to.(dst) <- true;
  {
    m_tdv = Array.copy st.tdv;
    m_simple = Array.copy st.simple;
    m_causal = Array.map Array.copy st.causal;
  }

let new_dep st m = Array.exists2 (fun mk k -> mk > k) m.m_tdv st.tdv

let c1 st m =
  let n = st.n in
  let rec some_k j k =
    k < n && ((m.m_tdv.(k) > st.tdv.(k) && not m.m_causal.(k).(j)) || some_k j (k + 1))
  in
  let rec some_j j = j < n && ((st.sent_to.(j) && some_k j 0) || some_j (j + 1)) in
  some_j 0

let c2 st m = m.m_tdv.(st.pid) = st.tdv.(st.pid) && not m.m_simple.(st.pid)
let c2' st m = m.m_tdv.(st.pid) = st.tdv.(st.pid) && new_dep st m

let must_force st m =
  c1 st m || match st.variant with Full -> c2 st m | V1 -> c2' st m | V2 -> false

let absorb st ~src m =
  if st.variant = Full then
    for k = 0 to st.n - 1 do
      if m.m_tdv.(k) > st.tdv.(k) then st.simple.(k) <- m.m_simple.(k)
      else if m.m_tdv.(k) = st.tdv.(k) then st.simple.(k) <- st.simple.(k) && m.m_simple.(k)
    done;
  for k = 0 to st.n - 1 do
    if m.m_tdv.(k) > st.tdv.(k) then begin
      st.tdv.(k) <- m.m_tdv.(k);
      Array.blit m.m_causal.(k) 0 st.causal.(k) 0 st.n
    end
    else if m.m_tdv.(k) = st.tdv.(k) then
      for l = 0 to st.n - 1 do
        st.causal.(k).(l) <- st.causal.(k).(l) || m.m_causal.(k).(l)
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

let predicates st m =
  let after_first_send = Array.exists Fun.id st.sent_to in
  let c1 = ("c1", c1 st m) in
  let rest = [ ("c_fdas", after_first_send && new_dep st m); ("c_fdi", new_dep st m) ] in
  match st.variant with
  | Full -> c1 :: ("c2", c2 st m) :: ("c2'", c2' st m) :: rest
  | V1 -> c1 :: ("c2'", c2' st m) :: rest
  | V2 -> c1 :: rest
