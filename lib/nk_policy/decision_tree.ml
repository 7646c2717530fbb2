type node = {
  children : (string, node) Hashtbl.t; (* edge label: next host label (TLD first) *)
  mutable here : Policy.t list; (* policies whose URL host pattern ends at this node *)
}

type t = { root : node }

let new_node () = { children = Hashtbl.create 4; here = [] }

(* Host labels in matching order: "med.nyu.edu" -> ["edu"; "nyu"; "med"].
   A pattern placed at its label path matches every request host that has
   those labels as a suffix, which is exactly subdomain matching. *)
let rev_labels host = List.rev (String.split_on_char '.' (String.lowercase_ascii host))

let host_of_pattern pattern =
  match String.index_opt pattern '/' with
  | Some i -> String.sub pattern 0 i
  | None -> pattern

let insert root labels policy =
  let rec go node = function
    | [] -> node.here <- policy :: node.here
    | label :: rest ->
      let child =
        match Hashtbl.find_opt node.children label with
        | Some c -> c
        | None ->
          let c = new_node () in
          Hashtbl.add node.children label c;
          c
      in
      go child rest
  in
  go root labels

let build policies =
  let root = new_node () in
  List.iter
    (fun (p : Policy.t) ->
      match p.Policy.urls with
      | [] -> root.here <- p :: root.here (* wildcard: reachable from every host *)
      | urls ->
        List.iter (fun pattern -> insert root (rev_labels (host_of_pattern pattern)) p) urls)
    policies;
  { root }

let find_closest t (req : Nk_http.Message.request) =
  (* Collect candidates along the host-label path, then run the full
     predicate evaluation only on those. *)
  let labels = rev_labels req.Nk_http.Message.url.Nk_http.Url.host in
  let candidates = ref [] in
  let rec walk node = function
    | [] -> List.iter (fun p -> candidates := p :: !candidates) node.here
    | label :: rest ->
      List.iter (fun p -> candidates := p :: !candidates) node.here;
      (match Hashtbl.find_opt node.children label with
       | Some child -> walk child rest
       | None -> ())
  in
  walk t.root labels;
  Policy.closest_match !candidates req
