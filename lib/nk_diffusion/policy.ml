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

type decision = Local | Offload of Neighbors.info list

let margin = 0.05

let decide ~pressure ~low_water ~candidates =
  if pressure < low_water then Local
  else
    match
      List.filter (fun (c : Neighbors.info) -> c.pressure +. margin <= pressure) candidates
    with
    | [] -> Local
    | eligible -> Offload eligible

let pick ~rng = function
  | [] -> None
  | candidates ->
    let weighted =
      List.map
        (fun (c : Neighbors.info) -> (Float.max 0.05 (1.0 -. c.pressure), c))
        candidates
    in
    let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 weighted in
    let roll = Nk_util.Prng.float rng total in
    let rec choose acc = function
      | [] -> None
      | [ (_, c) ] -> Some c
      | (w, c) :: rest -> if roll < acc +. w then Some c else choose (acc +. w) rest
    in
    choose 0.0 weighted
