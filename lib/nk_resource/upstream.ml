type t = {
  make : string -> Breaker.t;
  breakers : (string, Breaker.t) Hashtbl.t;
  budget : Retry_budget.t option;
  clock : unit -> float;
  metrics : Nk_telemetry.Metrics.t option;
  mutable outstanding : int;
}

type ticket = { owner : t; breaker : Breaker.t; mutable settled : bool }

let create breaker ?(retry_ratio = 0.0) ~clock ?metrics () =
  {
    make = (fun name -> Breaker.create ~name breaker ~clock ?metrics ());
    breakers = Hashtbl.create 8;
    budget =
      (if retry_ratio > 0.0 then Some (Retry_budget.create ~ratio:retry_ratio ?metrics ())
       else None);
    clock;
    metrics;
    outstanding = 0;
  }

let breaker t key =
  match Hashtbl.find_opt t.breakers key with
  | Some b -> b
  | None ->
    let b = t.make key in
    Hashtbl.add t.breakers key b;
    b

let acquire t key =
  let breaker = breaker t key in
  match Breaker.acquire breaker with
  | `Reject retry ->
    Option.iter (fun m -> Nk_telemetry.Metrics.incr m "breaker-short-circuits") t.metrics;
    `Reject retry
  | `Proceed ->
    t.outstanding <- t.outstanding + 1;
    `Proceed { owner = t; breaker; settled = false }

let outcome t ?budget breaker ok =
  if ok then begin
    Breaker.success breaker;
    match (t.budget, budget) with
    | Some rb, Some upstream -> Retry_budget.success rb ~upstream
    | _ -> ()
  end
  else Breaker.failure breaker

let settle ?budget ticket ok =
  if ticket.settled then invalid_arg "Upstream.settle: ticket already settled";
  ticket.settled <- true;
  ticket.owner.outstanding <- ticket.owner.outstanding - 1;
  outcome ticket.owner ?budget ticket.breaker ok

let record t ?budget key ok = outcome t ?budget (breaker t key) ok

let retry t ?deadline upstream =
  match t.budget with
  | None -> `Unbudgeted
  | Some rb ->
    let expired =
      match deadline with
      | Some d -> Deadline.expired d ~now:(t.clock ())
      | None -> false
    in
    if (not expired) && Retry_budget.try_retry rb ~upstream then `Granted else `Refused

let open_breakers t =
  Hashtbl.fold
    (fun key b acc -> if Breaker.state b <> Breaker.Closed then key :: acc else acc)
    t.breakers []
  |> List.sort compare

let outstanding t = t.outstanding
