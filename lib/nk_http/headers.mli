(** Ordered, case-insensitive HTTP header collection.

    Field names compare case-insensitively (RFC 2616 §4.2); insertion
    order of distinct fields is preserved for wire output. *)

type t

val of_list : (string * string) list -> t

val to_list : t -> (string * string) list
(** In insertion order; names are returned as originally written. *)

val get : t -> string -> string option
(** First value for the field, case-insensitive. *)

val set : t -> string -> string -> t
(** Replace all existing values for the field with the single value,
    keeping the original position of the first occurrence. *)

val remove : t -> string -> t

val mem : t -> string -> bool
