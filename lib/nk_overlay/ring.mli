(** Membership and Chord-style greedy routing on the identifier ring.

    The architecture treats the overlay "largely as a black box" (§3.4);
    this module provides the black box's contract: nodes join and leave
    with low overhead, every key has a live successor, and lookups
    take O(log n) hops via finger tables computed against the current
    membership. *)

type t

val create : unit -> t

val join : t -> Node_id.t -> unit

val leave : t -> Node_id.t -> unit

val mem : t -> Node_id.t -> bool

val size : t -> int

val nodes : t -> Node_id.t list
(** Sorted by ring position. *)

val successor : t -> Node_id.t -> Node_id.t option
(** First node at or clockwise after the key; [None] on an empty
    ring. O(log n). *)

val successors : t -> Node_id.t -> k:int -> Node_id.t list
(** The key's owner plus its next distinct clockwise successors, at
    most [k] nodes — a key's replica set. O(k log n), so callers no
    longer materialize the whole membership per lookup. *)

val lookup_path : t -> from:Node_id.t -> key:Node_id.t -> Node_id.t list
(** The nodes visited routing greedily by fingers from [from] to the
    key's successor, successor included, [from] excluded. Empty when
    the ring is empty or [from] already owns the key. Each hop costs
    one successor query (O(log n)): the farthest finger short of the
    key is computed from the key's predecessor instead of scanned.
    Raises [Invalid_argument] when the ring is non-empty and [from] is
    not a member. *)
