(* Reference speed.  The small shared VMs this benchmark runs on change
   speed by a third or more over seconds to minutes, in CPU time as much
   as in wall time, so a CPU-bound time measured now cannot be compared
   with one measured half an hour later.  A fixed computation, timed
   right before and after each measured piece of work, gives the
   machine's speed at that moment.  CPU-bound times are then scaled to
   a reference speed, at which the computation takes [nominal] seconds.

   The computation lives here, not in the libraries under test, so no
   change to the program moves it. *)

let nominal = 0.010

(* Allocation, hashing and scattered array writes, as in the workloads;
   about 10 ms on a 2.1 GHz vCPU. *)
let kernel () =
  let h = Hashtbl.create 1024 in
  let a = Array.make 4096 0 in
  let l = ref [] in
  for i = 0 to 199_999 do
    let k = i * 7919 land 4095 in
    a.(k) <- a.(k) + i;
    Hashtbl.replace h (k land 1023) (i, a.(k));
    l := (i, k) :: !l;
    if i land 4095 = 0 then l := []
  done;
  ignore (Sys.opaque_identity (Hashtbl.length h + List.length !l))

(* The kernel's time now: the median of three runs. *)
let sample () =
  Stats.median
    (List.init 3 (fun _ ->
         let t0 = Rdt_obs.Meter.now () in
         kernel ();
         Rdt_obs.Meter.now () -. t0))

(* The factor that scales a time measured between two samples to the
   reference speed. *)
let factor ~before ~after = nominal /. ((before +. after) /. 2.)
