type config = {
  low_water : float;
  high_water : float;
  fanout : int;
  offload_timeout : float;
  fetch_timeout : float;
  staleness : float;
}

(* The low water is proactive: well below the 0.5 crossing the pressure
   signal hits at the admission delay target, so diffusion starts moving
   work before admission control starts shedding it. *)
let default =
  { low_water = 0.3; high_water = 0.8; fanout = 3; offload_timeout = 3.0; fetch_timeout = 2.0;
    staleness = 3.0 }

let validate c =
  let module F = Nk_util.Findings in
  let f = F.create () in
  if c.low_water < 0.0 then
    F.reject f "diffusion_low_water must not be negative (got %g)" c.low_water;
  if c.low_water >= c.high_water then
    F.reject f "diffusion_low_water (%g) must be below diffusion_high_water (%g)" c.low_water
      c.high_water;
  if c.high_water > 1.0 then
    F.reject f "diffusion_high_water must be at most 1 (got %g)" c.high_water;
  F.positive_int f "diffusion_fanout" c.fanout;
  F.positive f "diffusion_offload_timeout" c.offload_timeout;
  F.positive f "diffusion_fetch_timeout" c.fetch_timeout;
  F.positive f "diffusion_staleness" c.staleness;
  F.to_list f

type candidate = { name : string; incarnation : int; pressure : float; distance : float }

let candidates redirector ~self ~now ~staleness ~fanout =
  let fresh =
    Nk_overlay.Redirector.fold_reports redirector ~from:self ~init:[]
      ~f:(fun name ~distance (h : Nk_overlay.Redirector.health) acc ->
        match h.pressure with
        | Some pressure when now -. h.reported_at <= staleness ->
          { name; incarnation = h.incarnation; pressure; distance } :: acc
        | _ -> acc)
  in
  match fresh with
  | [] -> []
  | fresh ->
    (* Work should diffuse to neighbors, not across the world: the
       redirector's close-by rule, around the nearest fresh reporter. *)
    let nearest = List.fold_left (fun acc c -> Float.min acc c.distance) infinity fresh in
    let bound = Nk_overlay.Redirector.close_bound nearest in
    List.filter (fun c -> c.distance <= bound) fresh
    |> List.sort (fun a b ->
           match Float.compare a.pressure b.pressure with
           | 0 -> String.compare a.name b.name
           | c -> c)
    |> List.filteri (fun i _ -> i < max 1 fanout)

type decision = Local | Offload of candidate list

let margin = 0.05

let decide ~pressure ~low_water ~candidates =
  if pressure < low_water then Local
  else
    match List.filter (fun c -> c.pressure +. margin <= pressure) candidates with
    | [] -> Local
    | eligible -> Offload eligible

let pick ~rng candidates =
  Nk_util.Prng.weighted rng (fun c -> Float.max 0.05 (1.0 -. c.pressure)) candidates
