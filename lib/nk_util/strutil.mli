(** Small string helpers shared across the HTTP and scripting layers. *)

val starts_with : prefix:string -> string -> bool

val ends_with : suffix:string -> string -> bool

val split_first : char -> string -> (string * string) option
(** [split_first c s] splits at the first occurrence of [c], excluding
    it, or [None] when absent. *)

val contains_sub : string -> sub:string -> bool

val index_sub : string -> sub:string -> start:int -> int option
(** First index [>= start] where [sub] occurs. *)

val count_sub : string -> sub:string -> int
(** Non-overlapping occurrences of [sub], scanned left to right as
    [replace_all] replaces them; 0 for an empty [sub]. *)

val replace_all : string -> sub:string -> by:string -> string
