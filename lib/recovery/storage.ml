module Pattern = Rdt_pattern.Pattern

type t = { pat : Pattern.t; stable : bool array array }

let create pat =
  let stable =
    Array.init (Pattern.n pat) (fun i ->
        Array.init (Array.length (Pattern.checkpoints pat i)) (fun x -> x = 0))
  in
  { pat; stable }

let check t (i, x) =
  if not (Pattern.has_ckpt t.pat (i, x)) then
    invalid_arg (Printf.sprintf "Storage: C(%d,%d) does not exist" i x)

let make_stable t (i, x) =
  check t (i, x);
  t.stable.(i).(x) <- true

let is_stable t (i, x) =
  check t (i, x);
  t.stable.(i).(x)

let stable_count t =
  Array.fold_left
    (fun acc row -> Array.fold_left (fun acc b -> if b then acc + 1 else acc) acc row)
    0 t.stable

let collectible t ~line =
  if Array.length line <> Pattern.n t.pat then invalid_arg "Storage.collectible: bad line";
  let out = ref [] in
  for i = Pattern.n t.pat - 1 downto 0 do
    (* never the initial checkpoint: a line of all zeros must remain a
       valid recovery target after any collection *)
    for x = min (line.(i) - 1) (Array.length t.stable.(i) - 1) downto 1 do
      if t.stable.(i).(x) then out := (i, x) :: !out
    done
  done;
  !out

let collect t ~line =
  let cks = collectible t ~line in
  List.iter (fun (i, x) -> t.stable.(i).(x) <- false) cks;
  List.length cks
