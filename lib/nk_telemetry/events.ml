type event = { time : float; name : string; attrs : (string * string) list }

type t = {
  clock : unit -> float;
  ring : event option array;
  mutable next_slot : int;
  mutable count : int;
}

(* Events retained; older ones are overwritten. *)
let capacity = 1024

let create ?(clock = fun () -> 0.0) () =
  { clock; ring = Array.make capacity None; next_slot = 0; count = 0 }

let record t ?(attrs = []) name =
  let time = t.clock () in
  t.ring.(t.next_slot) <- Some { time; name; attrs };
  t.next_slot <- (t.next_slot + 1) mod Array.length t.ring;
  t.count <- t.count + 1

let count t = t.count

let to_list t =
  let n = Array.length t.ring in
  List.filter_map (fun i -> t.ring.((t.next_slot + i) mod n)) (List.init n (fun i -> i))

let event_to_string e =
  Printf.sprintf "%10.3f %-12s %s" e.time e.name
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) e.attrs))
