(* Registry cells are atomics; the only shared mutable structure is the
   name -> cell table, guarded by a spin-lock taken only on the (rare)
   find-or-create path.  Hot-path updates are a single [Atomic.fetch_and_add]
   on an already-created cell. *)

type span_cell = { s_calls : int Atomic.t; s_nanos : int Atomic.t }

type cell = Counter of int Atomic.t | Gauge of int Atomic.t | Span of span_cell

type t = { lock : bool Atomic.t; cells : (string, cell) Hashtbl.t }

let now () = Unix.gettimeofday ()

let create () = { lock = Atomic.make false; cells = Hashtbl.create 32 }

let default = create ()

let with_lock t f =
  (* plain spin: the lock is only held for a table lookup/insert, so a
     domain waiting on it waits for one short critical section *)
  while not (Atomic.compare_and_set t.lock false true) do
    ()
  done;
  Fun.protect ~finally:(fun () -> Atomic.set t.lock false) f

let find_or_create t name mk =
  match with_lock t (fun () -> Hashtbl.find_opt t.cells name) with
  | Some c -> c
  | None ->
      with_lock t (fun () ->
          match Hashtbl.find_opt t.cells name with
          | Some c -> c
          | None ->
              let c = mk () in
              Hashtbl.add t.cells name c;
              c)

let counter_cell t name =
  match find_or_create t name (fun () -> Counter (Atomic.make 0)) with
  | Counter a -> a
  | Gauge _ | Span _ -> invalid_arg (Printf.sprintf "Meter: %S is not a counter" name)

let add t name v = ignore (Atomic.fetch_and_add (counter_cell t name) v)
let incr t name = add t name 1

let set_gauge t name v =
  match find_or_create t name (fun () -> Gauge (Atomic.make v)) with
  | Gauge a -> Atomic.set a v
  | Counter _ | Span _ -> invalid_arg (Printf.sprintf "Meter: %S is not a gauge" name)

let span_cell t name =
  match
    find_or_create t name (fun () -> Span { s_calls = Atomic.make 0; s_nanos = Atomic.make 0 })
  with
  | Span s -> s
  | Counter _ | Gauge _ -> invalid_arg (Printf.sprintf "Meter: %S is not a span" name)

let add_span t name seconds =
  let s = span_cell t name in
  ignore (Atomic.fetch_and_add s.s_calls 1);
  ignore (Atomic.fetch_and_add s.s_nanos (int_of_float (seconds *. 1e9)))

let time t name f =
  let t0 = now () in
  Fun.protect ~finally:(fun () -> add_span t name (now () -. t0)) f

type span = { calls : int; seconds : float }

let snapshot t =
  with_lock t (fun () -> Rdt_dist.Tbl.bindings_sorted ~compare:String.compare t.cells)

let counters t =
  snapshot t
  |> List.filter_map (fun (name, cell) ->
         match cell with
         | Counter a -> Some (name, Atomic.get a)
         | Gauge a -> Some ("gauge:" ^ name, Atomic.get a)
         | Span _ -> None)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let spans t =
  snapshot t
  |> List.filter_map (fun (name, cell) ->
         match cell with
         | Span s ->
             Some
               ( name,
                 { calls = Atomic.get s.s_calls; seconds = float_of_int (Atomic.get s.s_nanos) /. 1e9 } )
         | Counter _ | Gauge _ -> None)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
