type link_rule = {
  src : string option;
  dst : string option;
  probability : float;
  extra : float; (* 0. for pure drops *)
  kind : [ `Drop | `Spike ];
}

type partition_rule = { a : string list; b : string list; at : float; heal : float }

type crash_rule = { chost : string; cat : float; restart : float option }

type origin_rule = {
  ohost : string;
  oat : float;
  ountil : float;
  action : [ `Fail | `Slow of float ];
}

type t = {
  plan_seed : int;
  rng : Nk_util.Prng.t;
  mutable links : link_rule list;
  mutable partitions : partition_rule list;
  mutable crashes : crash_rule list;
  mutable origins : origin_rule list;
}

let create ?(seed = 7) () =
  {
    plan_seed = seed;
    rng = Nk_util.Prng.create seed;
    links = [];
    partitions = [];
    crashes = [];
    origins = [];
  }

let seed t = t.plan_seed

let drop_link t ?src ?dst ~probability () =
  t.links <- { src; dst; probability; extra = 0.; kind = `Drop } :: t.links

let spike_link t ?src ?dst ~probability ~extra () =
  t.links <- { src; dst; probability; extra; kind = `Spike } :: t.links

let partition t ~a ~b ~at ~heal = t.partitions <- { a; b; at; heal } :: t.partitions

let crash t ~host ~at ?restart () =
  t.crashes <- { chost = host; cat = at; restart } :: t.crashes

let fail_origin t ~host ~at ~until =
  t.origins <- { ohost = host; oat = at; ountil = until; action = `Fail } :: t.origins

let slow_origin t ~host ~at ~until ~factor =
  t.origins <- { ohost = host; oat = at; ountil = until; action = `Slow factor } :: t.origins

let random ~seed ~hosts ~start =
  let module Prng = Nk_util.Prng in
  let rng = Prng.create seed in
  let plan = create ~seed () in
  drop_link plan ~probability:(Prng.float rng 0.30) ();
  if Prng.bool rng then
    spike_link plan ~probability:(Prng.float rng 0.2) ~extra:(Prng.float rng 2.0) ();
  for _ = 1 to Prng.int rng 3 do
    let split = 1 + Prng.int rng 3 in
    let a = List.filteri (fun i _ -> i < split) hosts in
    let b = List.filteri (fun i _ -> i >= split) hosts in
    let at = start +. 5.0 +. Prng.float rng 25.0 in
    partition plan ~a ~b ~at ~heal:(at +. 2.0 +. Prng.float rng 8.0)
  done;
  List.iter
    (fun host ->
      if Prng.bool rng then begin
        let at = start +. 5.0 +. Prng.float rng 35.0 in
        crash plan ~host ~at ~restart:(at +. 1.0 +. Prng.float rng 9.0) ()
      end)
    hosts;
  plan

let matches opt name = match opt with None -> true | Some n -> String.equal n name

let partitioned t ~now ~src ~dst =
  List.exists
    (fun p ->
      now >= p.at && now < p.heal
      &&
      let src_a = List.mem src p.a and src_b = List.mem src p.b in
      let dst_a = List.mem dst p.a and dst_b = List.mem dst p.b in
      (src_a && dst_b) || (src_b && dst_a))
    t.partitions

let link_fate t ~now ~src ~dst =
  if partitioned t ~now ~src ~dst then `Drop
  else
    (* Draw from the PRNG once per matching probabilistic rule — and only
       then — so unrelated rules never shift each other's streams. *)
    let rec fate extra = function
      | [] -> `Deliver extra
      | r :: rest ->
          if matches r.src src && matches r.dst dst && r.probability > 0. then
            let hit = Nk_util.Prng.float t.rng 1.0 < r.probability in
            match r.kind with
            | `Drop -> if hit then `Drop else fate extra rest
            | `Spike -> fate (if hit then extra +. r.extra else extra) rest
          else fate extra rest
    in
    fate 0. (List.rev t.links)

let is_down t ~now host =
  List.exists
    (fun c ->
      String.equal c.chost host && now >= c.cat
      && match c.restart with None -> true | Some r -> now < r)
    t.crashes

let incarnation t ~now host =
  List.fold_left
    (fun n c -> if String.equal c.chost host && c.cat <= now then n + 1 else n)
    0 t.crashes

let restart_time t ~now host =
  List.fold_left
    (fun acc c ->
      if
        String.equal c.chost host && now >= c.cat
        && match c.restart with None -> true | Some r -> now < r
      then
        match (c.restart, acc) with
        | None, _ -> acc
        | Some r, None -> Some r
        | Some r, Some prev -> Some (Float.max r prev)
      else acc)
    None t.crashes

let crash_times t = List.rev_map (fun c -> (c.chost, c.cat)) t.crashes

let origin_state t ~now ~host =
  let rec find = function
    | [] -> `Ok
    | r :: rest ->
        if String.equal r.ohost host && now >= r.oat && now < r.ountil then
          (r.action :> [ `Ok | `Fail | `Slow of float ])
        else find rest
  in
  find (List.rev t.origins)

let describe t =
  Printf.sprintf
    "fault plan seed=%d: %d link rule(s), %d partition(s), %d crash(es), %d origin rule(s)"
    t.plan_seed (List.length t.links) (List.length t.partitions) (List.length t.crashes)
    (List.length t.origins)
