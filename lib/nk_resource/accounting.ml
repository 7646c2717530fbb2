(* Per site, one slot per resource: the open interval's consumption and
   the weighted average of the closed ones. A slot's average exists once
   the resource is charged, and only such slots fold when an interval
   closes; the float array's writes allocate nothing. *)
type site_state = { interval : float array; average : Nk_util.Ewma.t option array }

type t = { sites : (string, site_state) Hashtbl.t }

(* The weight of the newest interval in [usage]. *)
let alpha = 0.3

let slot = function
  | Resource.Cpu -> 0
  | Resource.Memory -> 1
  | Resource.Bandwidth -> 2
  | Resource.Running_time -> 3
  | Resource.Bytes_transferred -> 4

let create () = { sites = Hashtbl.create 16 }

let charge t ~site resource amount =
  let state =
    match Hashtbl.find_opt t.sites site with
    | Some s -> s
    | None ->
      let s = { interval = Array.make 5 0.0; average = Array.make 5 None } in
      Hashtbl.add t.sites site s;
      s
  in
  let i = slot resource in
  if Option.is_none state.average.(i) then
    state.average.(i) <- Some (Nk_util.Ewma.create ~alpha);
  state.interval.(i) <- state.interval.(i) +. amount

let usage t ~site resource =
  match Hashtbl.find_opt t.sites site with
  | Some state -> Option.fold ~none:0.0 ~some:Nk_util.Ewma.value state.average.(slot resource)
  | None -> 0.0

let active_sites t = Hashtbl.fold (fun k _ acc -> k :: acc) t.sites [] |> List.sort compare

(* A renewable resource's consumption counts only while it is congested;
   otherwise a zero folds in, so the average still decays and past
   penalization is forgotten. *)
let close_resource_interval t resource ~congested =
  let counts = (not (Resource.is_renewable resource)) || congested in
  let i = slot resource in
  Hashtbl.iter
    (fun _site state ->
      match state.average.(i) with
      | Some average ->
        ignore (Nk_util.Ewma.update average (if counts then state.interval.(i) else 0.0));
        state.interval.(i) <- 0.0
      | None -> ())
    t.sites
