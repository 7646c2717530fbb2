(** A small backtracking regular-expression engine.

    Supports the subset needed by Na Kika's header predicates and the
    script-level regex vocabulary: literals, [.], character classes
    ([\[a-z\]], negation), escapes ([\d \w \s] and escaped
    metacharacters), alternation ([|]), grouping [( )], the quantifiers
    [* + ?] and bounded [{m}] / [{m,n}], plus anchors [^] and [$]. *)

type t

exception Parse_error of string

val compile : string -> t
(** Raises [Parse_error] on malformed patterns. *)

(** Every matching function calls [step] once per step of the
    backtracking matcher; an exception raised by [step] stops the match
    and propagates. *)

val matches : t -> step:(unit -> unit) -> string -> bool
(** Unanchored search: true when the pattern matches anywhere. *)

val find : t -> step:(unit -> unit) -> string -> (int * int) option
(** Leftmost match as [(start, end_exclusive)]. *)

val replace : t -> step:(unit -> unit) -> by:string -> string -> string
(** Replace every non-overlapping leftmost match. *)

val split : t -> step:(unit -> unit) -> string -> string list
(** Split the string on matches. *)

val source : t -> string
(** The pattern the regex was compiled from. *)
