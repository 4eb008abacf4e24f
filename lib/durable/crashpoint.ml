(* Deterministic crash injection for the durable I/O layer.

   Every potentially-torn point of the write path (buffer write, fsync,
   rename, directory fsync) calls [hit]/[cap] with a site label.  Sites
   are counted; when armed at N, the Nth hit raises [Crash], simulating
   the process dying at exactly that instant — the exception unwinds
   without flushing anything, so the on-disk state is what a real
   SIGKILL would leave (modulo the kernel page cache, which the recovery
   contract does not rely on anyway: durability is claimed only after
   fsync returns).

   The state is global and test-only by convention: production code
   never arms it, and a disarmed hit is two loads and an increment. *)

exception Crash of string

type state = { mutable hits : int; mutable arm_at : int }
(* arm_at = 0: disarmed (counting only) *)

let st = { hits = 0; arm_at = 0 }

let reset () =
  st.hits <- 0;
  st.arm_at <- 0

let arm ~at =
  if at < 1 then invalid_arg "Crashpoint.arm: at must be >= 1";
  st.hits <- 0;
  st.arm_at <- at

let disarm () = st.arm_at <- 0

let hits () = st.hits

let crash site = raise (Crash site)

let hit site =
  st.hits <- st.hits + 1;
  if st.arm_at > 0 && st.hits = st.arm_at then crash site

(* Write sites can die *mid-write*: [cap site len] returns how many of
   [len] bytes the caller may write; when the armed site is reached the
   caller writes only the first half (a torn record on disk) and must
   then call [crash] — recovery has to cope with a CRC-invalid tail, not
   just a cleanly missing one. *)
let cap _site len =
  st.hits <- st.hits + 1;
  if st.arm_at > 0 && st.hits = st.arm_at then len / 2 else len
