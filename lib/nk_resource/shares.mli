(** The per-site capacity-share table a provisioning plan compiles
    into.

    A plan rule like [site "video.example" { share >= 30% }] becomes an
    ordered [(pattern, fraction)] entry here; {!Admission} consults the
    table to size each site's guaranteed slice of the admission queue.
    Declared sites keep their reservation whether or not they are
    currently active (that is what "guaranteed" means); undeclared
    sites split whatever the declarations leave unreserved.

    Patterns are the plan language's site patterns: an exact host name,
    ["*"] (every site), or ["*.suffix"] (any host under [suffix]).
    Resolution is first-match in declaration order — the same order the
    static verifier uses for its shadowing pass, so a rule the verifier
    calls unreachable really is unreachable here. *)

type t

val create : (string * float) list -> t
(** [create entries] builds a table from ordered [(pattern, fraction)]
    pairs, fractions in [(0, 1]]. The list order is the match order. *)

val is_empty : t -> bool

val matches : pattern:string -> string -> bool
(** Does [pattern] cover this site? Exact match, ["*"], or
    ["*.suffix"] suffix match (the site ["suffix"] itself is not
    covered by ["*.suffix"], only hosts under it). *)

val fraction : t -> site:string -> float option
(** The declared share for [site]: the first matching entry's
    fraction, [None] when no entry matches. *)

val reserved : t -> float
(** Sum of all declared fractions (what feasibility bounds by 1.0). *)
