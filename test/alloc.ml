(* What a thunk allocates, as the change in the GC's allocation counter
   [Gc.allocated_bytes] (minor allocations plus those made straight in
   the major heap, less the promoted words counted in both). Despite
   its name, on OCaml 5.1.1 that counter moves by the words allocated,
   not the bytes: copying a 1,000-element list moves it by as much as
   [Gc.minor_words], about 3,000. Probes therefore compare two readings
   of this helper (against copying a list of the same length, say),
   never a reading against a byte count; the sandbox probes' 1 MiB
   ceilings are read in the same unit. The minor heap is emptied first:
   a minor collection that falls inside the measured region inflates
   the delta by about the minor heap's size, so the reading would
   depend on how full the heap was when the test began. *)
let gc_allocated f =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let r = f () in
  (r, Gc.allocated_bytes () -. before)
