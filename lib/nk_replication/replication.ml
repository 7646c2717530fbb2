type strategy = Optimistic | Primary of string

type version = { counter : int; origin : string }

let version_newer a b =
  a.counter > b.counter || (a.counter = b.counter && a.origin > b.origin)

type node = {
  bus : Message_bus.t;
  node_name : string;
  store : Store.t;
  site : string;
  strategy : strategy;
  versions : (string, version) Hashtbl.t;
  mutable clock : int;
  mutable applied : int;
}

let tombstone = "\x00__deleted__"

let topic site = "hardstate:" ^ site

(* payload: counter \n origin \n key-length \n key \n value *)
let encode ~version ~key ~value =
  Printf.sprintf "%d\n%s\n%d\n%s%s" version.counter version.origin (String.length key) key value

let decode payload =
  match String.index_opt payload '\n' with
  | None -> None
  | Some i1 -> (
    match String.index_from_opt payload (i1 + 1) '\n' with
    | None -> None
    | Some i2 -> (
      match String.index_from_opt payload (i2 + 1) '\n' with
      | None -> None
      | Some i3 -> (
        match
          ( int_of_string_opt (String.sub payload 0 i1),
            int_of_string_opt (String.sub payload (i2 + 1) (i3 - i2 - 1)) )
        with
        | Some counter, Some key_len when i3 + 1 + key_len <= String.length payload ->
          let origin = String.sub payload (i1 + 1) (i2 - i1 - 1) in
          let key = String.sub payload (i3 + 1) key_len in
          let value =
            String.sub payload (i3 + 1 + key_len) (String.length payload - i3 - 1 - key_len)
          in
          Some ({ counter; origin }, key, value)
        | _ -> None)))

let apply_local t ~version ~key ~value =
  let stale =
    match Hashtbl.find_opt t.versions key with
    | Some current -> not (version_newer version current)
    | None -> false
  in
  if stale then true
  else begin
    t.clock <- max t.clock version.counter;
    let ok = Store.put t.store ~site:t.site ~key value in
    if ok then begin
      Hashtbl.replace t.versions key version;
      t.applied <- t.applied + 1
    end;
    ok
  end

let proposal_topic site = "hardstate-proposals:" ^ site

let on_message t ~payload ~from:_ =
  match decode payload with
  | Some (version, key, value) -> ignore (apply_local t ~version ~key ~value)
  | None -> ()

let broadcast t ~version ~key ~value =
  Message_bus.publish t.bus ~from:t.node_name ~topic:(topic t.site)
    ~payload:(encode ~version ~key ~value)

(* Primary replica: accept a forwarded proposal, serialize it by
   assigning the authoritative version, apply, and broadcast — "the
   script accepting updates can propagate them only to the origin
   server to ensure serializability" (§3.3). *)
let on_proposal t ~payload ~from:_ =
  match decode payload with
  | Some (_proposed_version, key, value) ->
    t.clock <- t.clock + 1;
    let version = { counter = t.clock; origin = t.node_name } in
    if apply_local t ~version ~key ~value then broadcast t ~version ~key ~value
  | None -> ()

let attach ~bus ~name ~host ~store ~site strategy =
  let t =
    {
      bus;
      node_name = name;
      store;
      site;
      strategy;
      versions = Hashtbl.create 32;
      clock = 0;
      applied = 0;
    }
  in
  Message_bus.attach bus ~name ~host;
  Message_bus.subscribe bus ~name ~topic:(topic site) ~handler:(fun ~payload ~from ->
      on_message t ~payload ~from);
  (match strategy with
   | Primary primary when primary = name ->
     Message_bus.subscribe bus ~name ~topic:(proposal_topic site)
       ~handler:(fun ~payload ~from -> on_proposal t ~payload ~from)
   | _ -> ());
  t

let update_value t ~key ~value =
  match t.strategy with
  | Primary primary when primary <> t.node_name ->
    (* Route through the primary: forward the proposal and apply the
       primary's broadcast when it arrives. The write is accepted (the
       proposal left this node); reads here stay eventually consistent. *)
    t.clock <- t.clock + 1;
    let version = { counter = t.clock; origin = t.node_name } in
    Message_bus.publish t.bus ~from:t.node_name ~topic:(proposal_topic t.site)
      ~payload:(encode ~version ~key ~value);
    true
  | Optimistic | Primary _ ->
    t.clock <- t.clock + 1;
    let version = { counter = t.clock; origin = t.node_name } in
    let ok = apply_local t ~version ~key ~value in
    if ok then broadcast t ~version ~key ~value;
    ok

let update t ~key ~value = update_value t ~key ~value

let read t ~key =
  match Store.get t.store ~site:t.site ~key with
  | Some v when v <> tombstone -> Some v
  | _ -> None

let delete t ~key = ignore (update_value t ~key ~value:tombstone)

let keys t ~prefix =
  Store.keys t.store ~site:t.site ~prefix
  |> List.filter (fun k -> Store.get t.store ~site:t.site ~key:k <> Some tombstone)

(* Anti-entropy: periodically re-broadcast every key this replica knows,
   at its current version. Receivers that already have the version drop
   it (version-stale), so the cycle is idempotent; receivers that missed
   the original broadcast — a partition outlasting the bus's retry
   budget, a crash — converge on the next cycle after heal. *)
let anti_entropy_interval = 30.0

let start_anti_entropy t =
  Nk_sim.Sim.every (Nk_sim.Net.sim (Message_bus.net t.bus)) ~period:anti_entropy_interval
    (fun () ->
      Hashtbl.iter
        (fun key version ->
          match Store.get t.store ~site:t.site ~key with
          | Some value -> broadcast t ~version ~key ~value
          | None -> ())
        t.versions)
