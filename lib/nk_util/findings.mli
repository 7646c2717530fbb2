(** The findings of a settings check: one message per value that is
    wrong under any interpretation, in the order found. [Config.validate]
    and the modules whose settings it holds each fill one. *)

type t

val create : unit -> t

val reject : t -> ('a, unit, string, unit) format4 -> 'a
(** Record the formatted message. *)

val positive : t -> string -> float -> unit
(** [positive f name v] records ["<name> must be positive (got <v>)"]
    ([v] printed as [%g]) unless [v > 0]. *)

val positive_int : t -> string -> int -> unit
(** {!positive} for an integer, printed as [%d]. *)

val to_list : t -> string list
(** The messages, oldest first. *)
