(* Membership is an ordered set, so join/leave are O(log n). Queries run
   on two structures derived from it, each rebuilt lazily after a
   membership change: a sorted-array snapshot of the members, and
   Chord's finger table over that snapshot. A successor query is one
   binary search over the snapshot; a routing hop is one array read.

   Ids are compared and stored as plain ints ([Node_id.t] is a private
   int): in the library's dev build no cross-module call is inlined,
   and an int array reads without the generic array's float check. *)

module S = Set.Make (struct
  type t = Node_id.t

  let compare (a : t) (b : t) = Int.compare (a :> int) (b :> int)
end)

(* One finger per bit of the 2^62-position id space. *)
let bits = 62

type t = {
  mutable members : S.t;
  mutable size : int; (* tracked; Set.cardinal is O(n) *)
  mutable sorted : Node_id.t array option; (* snapshot of [members] *)
  mutable fingers : int array option;
  (* [bits] slots per member, in snapshot order: slot [j * bits + i]
     holds the snapshot index of successor (member j + 2^i) *)
}

let create () = { members = S.empty; size = 0; sorted = None; fingers = None }

let mem t id = S.mem id t.members

let changed t =
  t.sorted <- None;
  t.fingers <- None

let join t id =
  if not (S.mem id t.members) then begin
    t.members <- S.add id t.members;
    t.size <- t.size + 1;
    changed t
  end

let leave t id =
  if S.mem id t.members then begin
    t.members <- S.remove id t.members;
    t.size <- t.size - 1;
    changed t
  end

let sorted_array t =
  match t.sorted with
  | Some a -> a
  | None ->
    let a = Array.of_list (S.elements t.members) in
    t.sorted <- Some a;
    a

(* The first index whose id is >= [key], or [Array.length a]. *)
let lower_bound (a : Node_id.t array) key =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if (a.(mid) :> int) < key then lo := mid + 1 else hi := mid
  done;
  !lo

(* The index of [key]'s successor in a non-empty snapshot (wrapping). *)
let owner_index a key =
  let i = lower_bound a key in
  if i = Array.length a then 0 else i

let finger_table t =
  match t.fingers with
  | Some f -> f
  | None ->
    let a = sorted_array t in
    let f = Array.make (Array.length a * bits) 0 in
    Array.iteri
      (fun j (id : Node_id.t) ->
        for i = 0 to bits - 1 do
          f.((j * bits) + i) <- owner_index a (((id :> int) + (1 lsl i)) land max_int)
        done)
      a;
    t.fingers <- Some f;
    f

let nodes t = Array.to_list (sorted_array t)

let successor t (key : Node_id.t) =
  if t.size = 0 then None
  else
    let a = sorted_array t in
    Some a.(owner_index a (key :> int))

(* The [m - j] members from snapshot slot [owner + j] on (wrapping). *)
let rec collect a owner j m =
  if j = m then [] else a.((owner + j) mod Array.length a) :: collect a owner (j + 1) m

let successors t (key : Node_id.t) ~k =
  if k <= 0 || t.size = 0 then []
  else begin
    let a = sorted_array t in
    let n = Array.length a in
    collect a (owner_index a (key :> int)) 0 (min k n)
  end

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
   all 62 fingers from the top makes, at one table read per hop. It
   needs [current] to be a member: from a non-member start the scan
   could also accept a finger that wrapped past the start point. *)
let rec route a fingers ~pred ~owner current =
  if current = pred then [ a.(owner) ]
  else
    let hop = floor_log2 (((a.(pred) : Node_id.t :> int) - (a.(current) :> int)) land max_int) in
    let next = fingers.((current * bits) + hop) in
    a.(next) :: route a fingers ~pred ~owner next

let lookup_path t ~(from : Node_id.t) ~(key : Node_id.t) =
  if t.size = 0 then []
  else begin
    let a = sorted_array t in
    let n = Array.length a in
    let start = lower_bound a (from :> int) in
    if start = n || (a.(start) :> int) <> (from :> int) then
      invalid_arg "Ring.lookup_path: from is not a member";
    let owner = owner_index a (key :> int) in
    if owner = start then []
    else
      (* Two or more members, so the key's predecessor, the slot before
         [owner], differs from it. *)
      route a (finger_table t) ~pred:((owner + n - 1) mod n) ~owner start
  end
