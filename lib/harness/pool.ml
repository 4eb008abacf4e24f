let max_jobs = 128

(* Workers pull slot indices from a shared atomic counter; each slot is
   executed exactly once, and Domain.join gives the caller a
   happens-before edge over every slot's write. *)
let iter_slots ~jobs ~count task =
  if jobs <= 1 || count <= 1 then
    for i = 0 to count - 1 do
      task i
    done
  else begin
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < count then begin
          task i;
          loop ()
        end
      in
      loop ()
    in
    let spawned = Array.init (min jobs count - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join spawned
  end

type ('a, 'b) slot =
  | Pending of 'a
  | Done of 'b * float
  | Failed of exn * Printexc.raw_backtrace

let run_slots ~jobs slots =
  let count = Array.length slots in
  let jobs = min jobs (min count max_jobs) in
  let task i =
    match slots.(i) with
    | Pending x -> (
        let t0 = Rdt_obs.Meter.now () in
        match x () with
        | y -> slots.(i) <- Done (y, Rdt_obs.Meter.now () -. t0)
        | exception e -> slots.(i) <- Failed (e, Printexc.get_raw_backtrace ()))
    | Done _ | Failed _ -> assert false
  in
  iter_slots ~jobs ~count task;
  (* fail on the smallest failed index, independent of scheduling *)
  Array.iter
    (function Failed (e, bt) -> Printexc.raise_with_backtrace e bt | Pending _ | Done _ -> ())
    slots

let map_timed ?(jobs = 1) f xs =
  if jobs < 1 then invalid_arg "Pool.map: jobs must be >= 1";
  let slots = Array.of_list (List.map (fun x -> Pending (fun () -> f x)) xs) in
  run_slots ~jobs slots;
  List.map
    (function Done (y, dt) -> (y, dt) | Pending _ | Failed _ -> assert false)
    (Array.to_list slots)

let map ?jobs f xs = List.map fst (map_timed ?jobs f xs)
