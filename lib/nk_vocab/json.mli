(** A small JSON codec (RFC 8259 subset: no unicode escapes beyond
    BMP pass-through).

    Hard-state values and inter-stage messages are strings; scripts use
    the [JSON] vocabulary to round-trip structured data through them. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result

val print : t -> string
(** Compact output; object fields keep their order. *)
