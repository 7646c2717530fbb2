type event = { time : float; name : string; attrs : (string * string) list }

type t = {
  clock : unit -> float;
  mutable slots : event array;
  mutable next : int; (* the slot the next record writes, = length when full *)
  mutable count : int;
}

(* Events retained; older ones are overwritten. *)
let capacity = 1024

(* The array starts empty and doubles as it fills, so a store that
   never records holds no slots. *)
let create ~clock = { clock; slots = [||]; next = 0; count = 0 }

let record t ~attrs name =
  let e = { time = t.clock (); name; attrs } in
  let n = Array.length t.slots in
  if t.next = n then
    if n < capacity then begin
      (* Grow: the new slots hold [e] until records overwrite them. *)
      let slots = Array.make (min capacity (max 1 (2 * n))) e in
      Array.blit t.slots 0 slots 0 n;
      t.slots <- slots
    end
    else t.next <- 0;
  t.slots.(t.next) <- e;
  t.next <- t.next + 1;
  t.count <- t.count + 1

let to_list t =
  (* Until the store wraps, events sit in record order from slot 0;
     after that the oldest is the slot the next record overwrites. *)
  let n = Array.length t.slots in
  let first = if t.count < capacity then 0 else t.next in
  List.init (min t.count capacity) (fun i -> t.slots.((first + i) mod n))

let event_to_string e =
  Printf.sprintf "%10.3f %-12s %s" e.time e.name
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) e.attrs))
