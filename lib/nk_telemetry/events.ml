type event = { time : float; name : string; attrs : (string * string) list }

type t = { clock : unit -> float; ring : event Ring.t }

(* Events retained; older ones are overwritten. *)
let capacity = 1024

let create ?(clock = fun () -> 0.0) () = { clock; ring = Ring.create ~capacity }

let record t ?(attrs = []) name = Ring.push t.ring { time = t.clock (); name; attrs }

let to_list t = Ring.to_list t.ring

let event_to_string e =
  Printf.sprintf "%10.3f %-12s %s" e.time e.name
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) e.attrs))
