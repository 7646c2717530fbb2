(** The [JSON] script vocabulary: [JSON.stringify(value)] and
    [JSON.parse(text)] (returning [null] on malformed input), for
    structured data in hard state and messages. *)

val install : Nk_script.Interp.ctx -> unit
