type 'a t = {
  capacity : int;
  mutable slots : 'a array;
  mutable next : int; (* the slot the next push writes, = length when full *)
  mutable count : int;
}

let create ~capacity = { capacity; slots = [||]; next = 0; count = 0 }

let push t x =
  let n = Array.length t.slots in
  if t.next = n then
    if n < t.capacity then begin
      (* Grow: the new slots hold [x] until pushes overwrite them. *)
      let slots = Array.make (min t.capacity (max 1 (2 * n))) x in
      Array.blit t.slots 0 slots 0 n;
      t.slots <- slots
    end
    else t.next <- 0;
  t.slots.(t.next) <- x;
  t.next <- t.next + 1;
  t.count <- t.count + 1

let count t = t.count

let to_list t =
  (* Until the ring wraps, values sit in push order from slot 0; after
     that the oldest is the slot the next push overwrites. *)
  let n = Array.length t.slots in
  let retained = min t.count t.capacity in
  let first = if t.count < t.capacity then 0 else t.next in
  List.init retained (fun i -> t.slots.((first + i) mod n))
