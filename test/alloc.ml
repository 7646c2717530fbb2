(* Bytes a thunk allocates, from the GC's counters ([Gc.allocated_bytes]:
   minor allocations plus those made straight in the major heap, less
   the promoted words counted in both). The minor heap is emptied
   first: a minor collection that falls inside the measured region
   inflates the delta by about the minor heap's size, so the reading
   would depend on how full the heap was when the test began. *)
let allocated_bytes f =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let r = f () in
  (r, Gc.allocated_bytes () -. before)
