let names = [| "c1"; "c2"; "c2'"; "c_fdas"; "c_fdi" |]
let c1_bit, c2_bit, c2'_bit, c_fdas_bit, c_fdi_bit = (1, 2, 4, 8, 16)
let bit_if b bit = if b then bit else 0

let to_names mask =
  let rec from i =
    if i = Array.length names then []
    else if mask land (1 lsl i) <> 0 then names.(i) :: from (i + 1)
    else from (i + 1)
  in
  from 0

let name bit = List.hd (to_names bit)

let new_dep ~(tdv : int array) ~(m_tdv : int array) =
  let n = Array.length tdv in
  let rec loop k = k < n && (m_tdv.(k) > tdv.(k) || loop (k + 1)) in
  loop 0

let c1 ~sent_to ~(tdv : int array) ~(m_tdv : int array) ~m_causal =
  let n = Array.length tdv and w = Array.length sent_to in
  let rec unknown_sibling row i =
    i < w && (sent_to.(i) land lnot m_causal.(row + i) <> 0 || unknown_sibling row (i + 1))
  in
  let rec some_k k =
    k < n && ((m_tdv.(k) > tdv.(k) && unknown_sibling (k * w) 0) || some_k (k + 1))
  in
  some_k 0

let c2 ~pid ~(tdv : int array) ~(m_tdv : int array) ~m_simple =
  m_tdv.(pid) = tdv.(pid) && not (Control.mem m_simple ~at:0 pid)

let c2' ~pid ~(tdv : int array) ~(m_tdv : int array) = m_tdv.(pid) = tdv.(pid) && new_dep ~tdv ~m_tdv

let c_fdas ~after_first_send ~tdv ~m_tdv = after_first_send && new_dep ~tdv ~m_tdv

let c_fdi ~tdv ~m_tdv = new_dep ~tdv ~m_tdv
