(* The event queue is one binary min-heap in four parallel arrays:
   unboxed times, tags, thunks and timer handles. A tag is the
   scheduling sequence number shifted left two bits, bit 0 flagging a
   daemon event and bit 1 a cancellable timer; tags are unique, so ties
   under the (time, tag) key run in scheduling order.

   A timer's handle holds its slot, rewritten whenever the entry moves,
   so [cancel] removes it in O(log n). Only entries with the timer bit
   touch the handles array, so moving a plain event costs no write
   there; a slot a timer left keeps its stale handle (slot -1, no
   closure) until another timer lands there. Every removal clears the
   thunk slot it vacates, so the queue holds no closure it will not
   run. Beyond the caller's closure (and a timer's two-word handle), a
   schedule+step allocates six words: the sifts take the moving entry's
   time boxed, on the push and on the pop that refills the root, and
   [step] boxes the new clock. *)

type timer = { mutable slot : int (* -1 once fired or cancelled *) }

type t = {
  mutable clock : float;
  mutable times : Float.Array.t;
  mutable tags : int array;
  mutable thunks : (unit -> unit) array;
  mutable handles : timer array;
  mutable len : int;
  mutable next_seq : int;
  mutable live : int; (* non-daemon events pending *)
  mutable executed : int; (* events run so far; scale soaks assert on it *)
}

let daemon_bit = 1

let timer_bit = 2

let vacant () = ()

(* Fills handle slots no timer has used; never queued, never written. *)
let no_timer = { slot = -1 }

let epoch = 1_136_073_600.0

let create ?(start_time = epoch) () =
  { clock = start_time; times = Float.Array.create 0; tags = [||]; thunks = [||];
    handles = [||]; len = 0; next_seq = 0; live = 0; executed = 0 }

let now t = t.clock

let grow t =
  let cap = Array.length t.thunks in
  let ncap = if cap = 0 then 64 else cap * 2 in
  let times = Float.Array.create ncap in
  Float.Array.blit t.times 0 times 0 t.len;
  let tags = Array.make ncap 0 in
  Array.blit t.tags 0 tags 0 t.len;
  let thunks = Array.make ncap vacant in
  Array.blit t.thunks 0 thunks 0 t.len;
  let handles = Array.make ncap no_timer in
  Array.blit t.handles 0 handles 0 t.len;
  t.times <- times;
  t.tags <- tags;
  t.thunks <- thunks;
  t.handles <- handles

(* A timer's handle follows its entry to slot [i]. *)
let[@inline] track t i h =
  Array.unsafe_set t.handles i h;
  h.slot <- i

let[@inline] place t i time tag thunk h =
  Float.Array.unsafe_set t.times i time;
  Array.unsafe_set t.tags i tag;
  Array.unsafe_set t.thunks i thunk;
  if tag land timer_bit <> 0 then track t i h

let[@inline] move t ~src ~dst =
  let tag = Array.unsafe_get t.tags src in
  Float.Array.unsafe_set t.times dst (Float.Array.unsafe_get t.times src);
  Array.unsafe_set t.tags dst tag;
  Array.unsafe_set t.thunks dst (Array.unsafe_get t.thunks src);
  if tag land timer_bit <> 0 then track t dst (Array.unsafe_get t.handles src)

(* Whether the entry at [i] orders before (time, tag). *)
let[@inline] before t i time tag =
  let ti = Float.Array.unsafe_get t.times i in
  ti < time || (ti = time && Array.unsafe_get t.tags i < tag)

let sift_up t hole time tag thunk h =
  let hole = ref hole in
  while !hole > 0 && not (before t ((!hole - 1) / 2) time tag) do
    let parent = (!hole - 1) / 2 in
    move t ~src:parent ~dst:!hole;
    hole := parent
  done;
  place t !hole time tag thunk h

let sift_down t hole time tag thunk h =
  let len = t.len in
  let hole = ref hole and sifting = ref true in
  while !sifting do
    let l = (2 * !hole) + 1 in
    if l >= len then sifting := false
    else begin
      let r = l + 1 in
      let c =
        if r < len && before t r (Float.Array.unsafe_get t.times l) (Array.unsafe_get t.tags l)
        then r
        else l
      in
      if before t c time tag then begin
        move t ~src:c ~dst:!hole;
        hole := c
      end
      else sifting := false
    end
  done;
  place t !hole time tag thunk h

(* Take the entry at slot [i] out: the last entry fills the hole and
   sifts whichever way its key sends it. *)
let remove t i =
  let last = t.len - 1 in
  t.len <- last;
  if i < last then begin
    let time = Float.Array.unsafe_get t.times last
    and tag = Array.unsafe_get t.tags last
    and thunk = Array.unsafe_get t.thunks last
    and h = Array.unsafe_get t.handles last in
    if i > 0 && not (before t ((i - 1) / 2) time tag) then sift_up t i time tag thunk h
    else sift_down t i time tag thunk h
  end;
  Array.unsafe_set t.thunks last vacant

let push t time flags thunk h =
  if t.len = Array.length t.thunks then grow t;
  let time = if time < t.clock then t.clock else time in
  let tag = (t.next_seq lsl 2) lor flags in
  t.next_seq <- t.next_seq + 1;
  t.len <- t.len + 1;
  sift_up t (t.len - 1) time tag thunk h

let[@inline] enqueue t daemon time thunk =
  if not daemon then t.live <- t.live + 1;
  push t time (if daemon then daemon_bit else 0) thunk no_timer

let schedule_at t ?(daemon = false) time thunk = enqueue t daemon time thunk

let schedule t ?(daemon = false) ~delay thunk = enqueue t daemon (t.clock +. delay) thunk

let timer t ~delay fire =
  let h = { slot = -1 } in
  push t (t.clock +. delay) (daemon_bit lor timer_bit) fire h;
  h

let cancel t h =
  let i = h.slot in
  if i >= 0 then begin
    h.slot <- -1;
    remove t i
  end

let step t =
  if t.len = 0 then false
  else begin
    let time = Float.Array.unsafe_get t.times 0 in
    let tag = Array.unsafe_get t.tags 0 in
    let thunk = Array.unsafe_get t.thunks 0 in
    if tag land timer_bit <> 0 then (Array.unsafe_get t.handles 0).slot <- -1;
    remove t 0;
    t.clock <- time;
    if tag land daemon_bit = 0 then t.live <- t.live - 1;
    t.executed <- t.executed + 1;
    thunk ();
    true
  end

let every t ~period f =
  let rec cycle () =
    f ();
    schedule t ~daemon:true ~delay:period cycle
  in
  schedule t ~daemon:true ~delay:period cycle

let run ?until t =
  match until with
  | None -> while t.live > 0 && step t do () done
  | Some deadline ->
    while t.len > 0 && Float.Array.unsafe_get t.times 0 <= deadline do
      ignore (step t)
    done;
    if t.clock < deadline then t.clock <- deadline

let pending t = t.len

let executed t = t.executed
