(** The predicate-matching decision tree of §4.

    The prototype "trades off space for dynamic predicate evaluation
    performance": while registering policy objects the matcher builds a
    tree indexed by the components of the resource URL's server name;
    lookup walks the request host's labels and only evaluates the
    remaining predicate components of policies reachable along that
    path. Semantics are identical to [Policy.closest_match] (a QCheck
    property in the test suite asserts the equivalence). *)

type t

val build : Policy.t list -> t

val find_closest : t -> Nk_http.Message.request -> Policy.t option
