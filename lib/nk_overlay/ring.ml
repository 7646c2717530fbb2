(* Membership is an ordered set, so join/leave are O(log n) instead of
   the old re-sort-the-whole-array (join) and array->list->array
   round-trip (leave) — the difference between a 1000-node churn step
   costing microseconds and milliseconds. A sorted-array snapshot is
   cached lazily for [nodes] and invalidated on membership change. *)

module S = Set.Make (Node_id)

type t = {
  mutable members : S.t;
  mutable size : int; (* tracked; Set.cardinal is O(n) *)
  mutable sorted : Node_id.t array option; (* lazy cache for [nodes] *)
}

let create () = { members = S.empty; size = 0; sorted = None }

let mem t id = S.mem id t.members

let join t id =
  if not (S.mem id t.members) then begin
    t.members <- S.add id t.members;
    t.size <- t.size + 1;
    t.sorted <- None
  end

let leave t id =
  if S.mem id t.members then begin
    t.members <- S.remove id t.members;
    t.size <- t.size - 1;
    t.sorted <- None
  end

let size t = t.size

let sorted_array t =
  match t.sorted with
  | Some a -> a
  | None ->
    let a = Array.of_list (S.elements t.members) in
    t.sorted <- Some a;
    a

let nodes t = Array.to_list (sorted_array t)

let successor t key =
  if t.size = 0 then None
  else
    match S.find_first_opt (fun x -> Node_id.compare x key >= 0) t.members with
    | Some _ as s -> s
    | None -> S.min_elt_opt t.members (* wrap *)

(* The member strictly clockwise after [id] (wrapping). *)
let next_after t id =
  match S.find_first_opt (fun x -> Node_id.compare x id > 0) t.members with
  | Some _ as s -> s
  | None -> S.min_elt_opt t.members

let successors t key ~k =
  match successor t key with
  | None -> []
  | Some owner ->
    let rec collect acc current remaining =
      if remaining = 0 then List.rev acc
      else
        match next_after t current with
        | None -> List.rev acc
        | Some nxt ->
          if Node_id.equal nxt owner then List.rev acc (* wrapped around *)
          else collect (nxt :: acc) nxt (remaining - 1)
    in
    collect [ owner ] owner (min k t.size - 1)

(* The member strictly counter-clockwise before [key] (wrapping). *)
let predecessor t key =
  match S.find_last_opt (fun x -> Node_id.compare x key < 0) t.members with
  | Some _ as p -> p
  | None -> S.max_elt_opt t.members

(* floor (log2 d) for 0 < d < 2^62, by halving shifts 32, 16, ..., 1. *)
let floor_log2 d =
  let rec go d r s =
    if s = 0 then r else if d lsr s <> 0 then go (d lsr s) (r + s) (s / 2) else go d r (s / 2)
  in
  go d 0 32

(* Greedy finger routing: from each hop, jump to the farthest finger
   successor(current + 2^i) that stays strictly short of the key, or to
   the owner when no finger does.

   The members strictly between a member [current] and the key are
   exactly the arc up to [pred], the key's predecessor. A finger lands
   in that arc iff 2^i <= distance current pred: then current + 2^i lies
   in the arc and its successor is at most [pred]; otherwise the
   successor is past the key or wraps back to [current]. So the
   farthest such finger has i = floor (log2 (distance current pred)),
   and there is none once current = pred. This is the choice a scan of
   all 62 fingers from the top makes, at one successor query per hop.
   It needs [current] to be a member: from a non-member start the scan
   could also accept a finger that wrapped past the start point. *)
let lookup_path t ~from ~key =
  match successor t key with
  | None -> []
  | Some owner ->
    if not (mem t from) then invalid_arg "Ring.lookup_path: from is not a member";
    if Node_id.equal owner from then []
    else begin
      (* Two or more members, so [pred] exists and differs from [owner]. *)
      let pred = Option.get (predecessor t key) in
      let rec route current acc =
        if Node_id.equal current pred then List.rev (owner :: acc)
        else
          let i = floor_log2 (Node_id.distance current pred) in
          let next = Option.get (successor t (Node_id.add_pow2 current i)) in
          route next (next :: acc)
      in
      route from []
    end
