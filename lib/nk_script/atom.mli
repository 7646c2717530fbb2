(** Interned property names.

    A process-wide string <-> int interning table: object layouts
    ({!Value.shape}), shape transitions and the compiler's inline
    caches key properties by atom, so hot property access never hashes
    a string. Append-only and never freed; bounded by the distinct
    property names the loaded scripts and vocabularies use. *)

type t = int

val intern : string -> t
(** Idempotent: the same string always returns the same atom. *)

val to_string : t -> string

val length : t
(** The pre-interned atom for ["length"]. *)
