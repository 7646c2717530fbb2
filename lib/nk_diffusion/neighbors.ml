type info = {
  name : string;
  pressure : float;
  incarnation : int;
  distance : float;
  reported_at : float;
}

type t = { table : (string, info) Hashtbl.t }

let create () = { table = Hashtbl.create 8 }

let observe t ~name ~incarnation ~pressure ~distance ~now =
  let fresh =
    match Hashtbl.find_opt t.table name with
    | Some prev -> incarnation >= prev.incarnation
    | None -> true
  in
  if fresh then
    Hashtbl.replace t.table name { name; pressure; incarnation; distance; reported_at = now }

let candidates t ~now ~staleness ~fanout =
  let fresh =
    Hashtbl.fold
      (fun _ info acc -> if now -. info.reported_at <= staleness then info :: acc else acc)
      t.table []
  in
  match fresh with
  | [] -> []
  | fresh ->
    (* Close set: work should diffuse to neighbors, not across the
       world — same 2x-nearest rule the redirector uses for clients. *)
    let nearest =
      List.fold_left (fun acc i -> Float.min acc i.distance) infinity fresh
    in
    List.filter (fun i -> i.distance <= (nearest *. 2.0) +. 1e-4) fresh
    |> List.sort (fun a b ->
           match compare a.pressure b.pressure with 0 -> compare a.name b.name | c -> c)
    |> List.filteri (fun i _ -> i < max 1 fanout)
