(* Wall-clock helpers: a monotonic nanosecond clock, order statistics,
   and the replay timer the per-layer costs are measured with. *)

let now_ns () = Monotonic_clock.now ()

let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

let us_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e3

let sorted_copy a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an already sorted array, [p] in [0, 100]. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let median values =
  match values with
  | [] -> 0.0
  | _ -> percentile (sorted_copy (Array.of_list values)) 50.0

(* The machine's speed gauge: a fixed computation that shares no code
   with the program, so no change to the program makes it faster or
   slower. It allocates nothing, so it neither starts a collection of the
   program's heap nor pays for one; [gauge_s] checks this on every call.
   It is a miniature event loop shaped like the simulator's: a binary
   heap of event times in a preallocated array, each event writing a
   URL-sized key into a byte buffer and storing the key's hash in an
   open-addressed table. A host whose other tenants slow this process
   down slows the gauge by the same factor. *)
let gauge_events = 512
let gauge_steps = 6_000
let gauge_heap = Array.make gauge_events 0
let gauge_table = Array.make 2048 (-1)
let gauge_key = Bytes.of_string "GET http://www.crowd.example/0000"

(* Adds [v] to a heap of [size] entries. *)
let gauge_push size v =
  let i = ref size in
  while !i > 0 && gauge_heap.((!i - 1) / 2) > v do
    gauge_heap.(!i) <- gauge_heap.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  gauge_heap.(!i) <- v

(* Removes the least entry from a heap of [size] entries. *)
let gauge_pop size =
  let top = gauge_heap.(0) and last = gauge_heap.(size - 1) in
  let size = size - 1 and i = ref 0 and settled = ref false in
  while not !settled do
    let c = (2 * !i) + 1 in
    let c = if c + 1 < size && gauge_heap.(c + 1) < gauge_heap.(c) then c + 1 else c in
    if c < size && gauge_heap.(c) < last then begin
      gauge_heap.(!i) <- gauge_heap.(c);
      i := c
    end
    else settled := true
  done;
  if size > 0 then gauge_heap.(!i) <- last;
  top

(* One event: the key's last four digits, FNV-1a over the whole key,
   and a linear-probing insert of the key's id. *)
let gauge_event k =
  let id = k land 1023 in
  let len = Bytes.length gauge_key in
  let d = ref id in
  for j = len - 1 downto len - 4 do
    Bytes.unsafe_set gauge_key j (Char.unsafe_chr (48 + (!d mod 10)));
    d := !d / 10
  done;
  let h = ref 0x811c9dc5 in
  for j = 0 to len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get gauge_key j)) * 0x01000193
  done;
  let mask = Array.length gauge_table - 1 in
  let slot = ref (!h land mask) in
  while gauge_table.(!slot) <> -1 && gauge_table.(!slot) <> id do
    slot := (!slot + 1) land mask
  done;
  gauge_table.(!slot) <- id

let reference_work () =
  Array.fill gauge_table 0 (Array.length gauge_table) (-1);
  for i = 0 to gauge_events - 1 do
    gauge_push i ((i * 7919 mod 10_007 * 4096) + i)
  done;
  for _ = 1 to gauge_steps do
    let k = gauge_pop gauge_events in
    gauge_event k;
    gauge_push (gauge_events - 1) (k + (4096 * (1 + (k mod 97))))
  done;
  gauge_table.(0)

(* Wall seconds of one [reference_work]; fails if it allocated. *)
let gauge_s () =
  let t0 = now_ns () in
  let words = Gc.minor_words () in
  ignore (Sys.opaque_identity (reference_work ()));
  let allocated = Gc.minor_words () -. words in
  let t1 = now_ns () in
  if allocated <> 0.0 then failwith "perfbench: the speed gauge allocated";
  us_between t0 t1 /. 1e6

(* A fixed scale, a round figure near what [reference_work] took on the
   2-vCPU VM the benchmark was written on. End-to-end times are reported
   as if every episode had run at that speed. *)
let reference_nominal_s = 0.001

(* Microseconds per call of [f] over [inputs]: whole passes over the
   inputs are timed until [budget] seconds have gone by (at least three
   passes), and the median pass is reported. A stateful [f] (a cache, a
   DHT) warms up in the first pass; the median drops that pass.
   [before_pass] runs untimed before each pass. *)
let per_call ?(budget = 0.15) ?(before_pass = ignore) inputs f =
  let n = Array.length inputs in
  if n = 0 then 0.0
  else begin
    let start = now_ns () in
    let passes = ref [] in
    while List.length !passes < 3 || seconds_since start < budget do
      before_pass ();
      let t0 = now_ns () in
      for i = 0 to n - 1 do
        ignore (Sys.opaque_identity (f inputs.(i)))
      done;
      passes := (us_between t0 (now_ns ()) /. float_of_int n) :: !passes
    done;
    median !passes
  end
