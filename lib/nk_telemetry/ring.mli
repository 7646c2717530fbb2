(** A bounded ring of the most recent values, shared by {!Events} and
    {!Tracer}. Its array starts empty and doubles as it fills, up to the
    capacity, so a store that never records holds no slots; after that
    each push overwrites the oldest value. *)

type 'a t

val create : capacity:int -> 'a t

val push : 'a t -> 'a -> unit

val count : 'a t -> int
(** Total values pushed (not capped by the capacity). *)

val to_list : 'a t -> 'a list
(** The retained values, oldest first. *)
