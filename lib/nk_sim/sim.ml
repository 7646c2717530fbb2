(* The event queue is a binary min-heap kept as three parallel arrays:
   times unboxed in a [Float.Array.t], tags in an [int array] and thunks
   in their own array, so scheduling an event allocates nothing beyond
   the caller's closure. A tag is the scheduling sequence number shifted
   left one bit, with the low bit set for daemon events: tags are
   unique, and comparing them compares scheduling order. Sifting moves a
   hole instead of swapping, and every pop clears the slot it vacates so
   the queue holds no closure it will not run.

   Cancellable timers sit in a second heap of the same layout, keyed by
   the same (time, tag) pairs from the same sequence counter, so [step]
   runs whichever head is earlier and the merged order is the order one
   heap would give. Each timer's handle records its slot, rewritten on
   every move, so [cancel] removes it in O(log n); the event heap pays
   nothing for that bookkeeping. *)

type timer = { mutable slot : int; (* -1 once fired or cancelled *) mutable fire : unit -> unit }

type t = {
  mutable clock : float;
  mutable times : Float.Array.t;
  mutable tags : int array;
  mutable thunks : (unit -> unit) array;
  mutable len : int;
  mutable ttimes : Float.Array.t;
  mutable ttags : int array;
  mutable timers : timer array;
  mutable tlen : int;
  mutable next_seq : int;
  mutable live : int; (* non-daemon events pending *)
  mutable executed : int; (* events run so far; scale soaks assert on it *)
}

let vacant () = ()

(* Fills the timer heap's free slots; never queued, never written. *)
let no_timer = { slot = -1; fire = vacant }

let create ?(start_time = 1_136_073_600.0) () =
  { clock = start_time; times = Float.Array.create 0; tags = [||]; thunks = [||]; len = 0;
    ttimes = Float.Array.create 0; ttags = [||]; timers = [||]; tlen = 0;
    next_seq = 0; live = 0; executed = 0 }

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
  t.times <- times;
  t.tags <- tags;
  t.thunks <- thunks

let[@inline] place t i time tag thunk =
  Float.Array.unsafe_set t.times i time;
  Array.unsafe_set t.tags i tag;
  Array.unsafe_set t.thunks i thunk

let[@inline] move t ~src ~dst =
  place t dst (Float.Array.unsafe_get t.times src) (Array.unsafe_get t.tags src)
    (Array.unsafe_get t.thunks src)

(* The new event has the largest tag, so it rises only past strictly
   later times. *)
let[@inline] push t time daemon thunk =
  if t.len = Array.length t.thunks then grow t;
  let tag = (t.next_seq lsl 1) lor Bool.to_int daemon in
  t.next_seq <- t.next_seq + 1;
  let hole = ref t.len in
  t.len <- t.len + 1;
  while
    !hole > 0 && time < Float.Array.unsafe_get t.times ((!hole - 1) / 2)
  do
    let parent = (!hole - 1) / 2 in
    move t ~src:parent ~dst:!hole;
    hole := parent
  done;
  place t !hole time tag thunk

(* Remove the minimum: the last event fills the hole left at the root,
   sifted down past every child that orders before it. *)
let pop t =
  let last = t.len - 1 in
  t.len <- last;
  if last > 0 then begin
    let time = Float.Array.unsafe_get t.times last
    and tag = Array.unsafe_get t.tags last
    and thunk = Array.unsafe_get t.thunks last in
    let hole = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !hole) + 1 in
      if l >= last then sifting := false
      else begin
        let r = l + 1 in
        let c =
          if r < last
             && (let tl = Float.Array.unsafe_get t.times l
                 and tr = Float.Array.unsafe_get t.times r in
                 tr < tl || (tr = tl && Array.unsafe_get t.tags r < Array.unsafe_get t.tags l))
          then r
          else l
        in
        let tc = Float.Array.unsafe_get t.times c in
        if tc < time || (tc = time && Array.unsafe_get t.tags c < tag) then begin
          move t ~src:c ~dst:!hole;
          hole := c
        end
        else sifting := false
      end
    done;
    place t !hole time tag thunk
  end;
  Array.unsafe_set t.thunks last vacant

let[@inline] enqueue t daemon time thunk =
  let time = if time < t.clock then t.clock else time in
  if not daemon then t.live <- t.live + 1;
  push t time daemon thunk

let schedule_at t ?(daemon = false) time thunk = enqueue t daemon time thunk

let schedule t ?(daemon = false) ~delay thunk = enqueue t daemon (t.clock +. delay) thunk

(* --- the timer heap ---------------------------------------------------- *)

let grow_timers t =
  let cap = Array.length t.timers in
  let ncap = if cap = 0 then 64 else cap * 2 in
  let times = Float.Array.create ncap in
  Float.Array.blit t.ttimes 0 times 0 t.tlen;
  let tags = Array.make ncap 0 in
  Array.blit t.ttags 0 tags 0 t.tlen;
  let timers = Array.make ncap no_timer in
  Array.blit t.timers 0 timers 0 t.tlen;
  t.ttimes <- times;
  t.ttags <- tags;
  t.timers <- timers

let[@inline] tplace t i time tag h =
  Float.Array.unsafe_set t.ttimes i time;
  Array.unsafe_set t.ttags i tag;
  Array.unsafe_set t.timers i h;
  h.slot <- i

(* Whether the timer at [i] orders before (time, tag). *)
let[@inline] tbefore t i time tag =
  let ti = Float.Array.unsafe_get t.ttimes i in
  ti < time || (ti = time && Array.unsafe_get t.ttags i < tag)

let tsift_up t hole time tag h =
  let hole = ref hole in
  while !hole > 0 && not (tbefore t ((!hole - 1) / 2) time tag) do
    let parent = (!hole - 1) / 2 in
    tplace t !hole (Float.Array.unsafe_get t.ttimes parent) (Array.unsafe_get t.ttags parent)
      (Array.unsafe_get t.timers parent);
    hole := parent
  done;
  tplace t !hole time tag h

let tsift_down t hole time tag h =
  let hole = ref hole and sifting = ref true in
  while !sifting do
    let l = (2 * !hole) + 1 in
    if l >= t.tlen then sifting := false
    else begin
      let r = l + 1 in
      let c =
        if r < t.tlen
           && tbefore t r (Float.Array.unsafe_get t.ttimes l) (Array.unsafe_get t.ttags l)
        then r
        else l
      in
      if tbefore t c time tag then begin
        tplace t !hole (Float.Array.unsafe_get t.ttimes c) (Array.unsafe_get t.ttags c)
          (Array.unsafe_get t.timers c);
        hole := c
      end
      else sifting := false
    end
  done;
  tplace t !hole time tag h

(* Take the timer at slot [i] out: the last timer fills the hole and
   sifts whichever way its key sends it. The handle is unlinked and lets
   go of its closure. *)
let remove_timer t i =
  let h = Array.unsafe_get t.timers i in
  let last = t.tlen - 1 in
  t.tlen <- last;
  if i < last then begin
    let time = Float.Array.unsafe_get t.ttimes last
    and tag = Array.unsafe_get t.ttags last
    and moved = Array.unsafe_get t.timers last in
    if i > 0 && not (tbefore t ((i - 1) / 2) time tag) then tsift_up t i time tag moved
    else tsift_down t i time tag moved
  end;
  Array.unsafe_set t.timers last no_timer;
  h.slot <- -1;
  h.fire <- vacant

let timer t ~delay fire =
  if t.tlen = Array.length t.timers then grow_timers t;
  let time = t.clock +. delay in
  let time = if time < t.clock then t.clock else time in
  let tag = (t.next_seq lsl 1) lor 1 in
  t.next_seq <- t.next_seq + 1;
  let h = { slot = -1; fire } in
  t.tlen <- t.tlen + 1;
  tsift_up t (t.tlen - 1) time tag h;
  h

let cancel t h = if h.slot >= 0 then remove_timer t h.slot

(* The earliest timer runs when it orders before the earliest event. *)
let[@inline] timer_first t =
  t.tlen > 0
  && (t.len = 0
     || tbefore t 0 (Float.Array.unsafe_get t.times 0) (Array.unsafe_get t.tags 0))

let fire_timer t =
  let time = Float.Array.unsafe_get t.ttimes 0 in
  let fire = (Array.unsafe_get t.timers 0).fire in
  remove_timer t 0;
  t.clock <- time;
  t.executed <- t.executed + 1;
  fire ()

let step t =
  if timer_first t then begin
    fire_timer t;
    true
  end
  else if t.len = 0 then false
  else begin
    let time = Float.Array.unsafe_get t.times 0 in
    let tag = Array.unsafe_get t.tags 0 in
    let thunk = Array.unsafe_get t.thunks 0 in
    pop t;
    t.clock <- time;
    if tag land 1 = 0 then t.live <- t.live - 1;
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
    while
      (t.len > 0 && Float.Array.unsafe_get t.times 0 <= deadline)
      || (t.tlen > 0 && Float.Array.unsafe_get t.ttimes 0 <= deadline)
    do
      ignore (step t)
    done;
    if t.clock < deadline then t.clock <- deadline

let pending t = t.len + t.tlen

let executed t = t.executed
