(** Membership and Chord-style greedy routing on the identifier ring.

    The architecture treats the overlay "largely as a black box" (§3.4);
    this module provides the black box's contract: nodes join and leave
    with low overhead, every key has a live successor, and lookups
    take O(log n) hops via finger tables computed against the current
    membership.

    Membership is an ordered set: {!join} and {!leave} cost O(log n)
    and mark two derived structures stale, a sorted array of the
    members and a finger table ([62] entries per member) over it. The
    first query after a change rebuilds what it reads: the array in
    O(n), the table in O(n log n). *)

type t

val create : unit -> t

val join : t -> Node_id.t -> unit

val leave : t -> Node_id.t -> unit

val mem : t -> Node_id.t -> bool

val nodes : t -> Node_id.t list
(** Sorted by ring position. *)

val successor : t -> Node_id.t -> Node_id.t option
(** First node at or clockwise after the key; [None] on an empty
    ring. One binary search over the sorted members. *)

val successors : t -> Node_id.t -> k:int -> Node_id.t list
(** The key's owner plus its next distinct clockwise successors, at
    most [k] nodes — a key's replica set; empty when [k <= 0] or the
    ring is empty. One binary search, then [k] consecutive slots of the
    sorted members. *)

val lookup_path : t -> from:Node_id.t -> key:Node_id.t -> Node_id.t list
(** The nodes visited routing greedily by fingers from [from] to the
    key's successor, successor included, [from] excluded. Empty when
    the ring is empty or [from] already owns the key. Binary searches
    find [from], the owner and the key's predecessor; each hop is then
    one finger-table read: the farthest finger short of the key is
    computed from the predecessor instead of scanned. Allocates only
    the returned list. Raises [Invalid_argument] when the ring is
    non-empty and [from] is not a member. *)
