type site_state = {
  interval : (Resource.t, float ref) Hashtbl.t;
  average : (Resource.t, Nk_util.Ewma.t) Hashtbl.t;
}

type t = { sites : (string, site_state) Hashtbl.t }

(* The weight of the newest interval in [usage]. *)
let alpha = 0.3

let create () = { sites = Hashtbl.create 16 }

let site_state t site =
  match Hashtbl.find_opt t.sites site with
  | Some s -> s
  | None ->
    let s = { interval = Hashtbl.create 8; average = Hashtbl.create 8 } in
    Hashtbl.add t.sites site s;
    s

let counter state resource =
  match Hashtbl.find_opt state.interval resource with
  | Some r -> r
  | None ->
    let r = ref 0.0 in
    Hashtbl.add state.interval resource r;
    r

let ewma state resource =
  match Hashtbl.find_opt state.average resource with
  | Some e -> e
  | None ->
    let e = Nk_util.Ewma.create ~alpha in
    Hashtbl.add state.average resource e;
    e

let charge t ~site resource amount =
  let state = site_state t site in
  let r = counter state resource in
  r := !r +. amount

let usage t ~site resource =
  match Hashtbl.find_opt t.sites site with
  | None -> 0.0
  | Some state -> (
    match Hashtbl.find_opt state.average resource with
    | Some e -> Nk_util.Ewma.value e
    | None -> 0.0)

let active_sites t = Hashtbl.fold (fun k _ acc -> k :: acc) t.sites [] |> List.sort compare

let fold_one state resource r ~congested =
  let counts = (not (Resource.is_renewable resource)) || congested in
  if counts then ignore (Nk_util.Ewma.update (ewma state resource) !r)
  else
    (* Renewable and uncongested: the average still decays so past
       penalization is forgotten. *)
    ignore (Nk_util.Ewma.update (ewma state resource) 0.0);
  r := 0.0

let close_resource_interval t resource ~congested =
  Hashtbl.iter
    (fun _site state ->
      match Hashtbl.find_opt state.interval resource with
      | Some r -> fold_one state resource r ~congested
      | None -> ())
    t.sites
