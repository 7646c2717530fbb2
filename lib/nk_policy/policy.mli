(** Policy objects: predicates paired with event handlers (§3.1).

    A policy matches a request when every non-empty predicate property
    matches (conjunction); within a property, any listed value may match
    (disjunction); empty properties are treated as truth values. The
    closest valid match is selected with precedence "resource URLs,
    followed by client addresses, then HTTP methods, and finally
    arbitrary headers". *)

type t = {
  urls : string list; (** URL prefixes ("host/path") *)
  clients : string list; (** CIDR blocks or domain suffixes *)
  methods : string list;
  headers : (string * Nk_regex.Regex.t) list; (** name, value regex *)
  on_request : Nk_script.Value.t option; (** function value or [None] (no-op) *)
  on_response : Nk_script.Value.t option;
  next_stages : string list; (** script URLs to schedule after this stage *)
  order : int; (** registration order; later registrations win ties *)
}

val make : urls:string list -> order:int -> t
(** A URL-only policy with no handlers (scripts build the rest through
    {!Script_bridge}). *)

val closest_match : t list -> Nk_http.Message.request -> t option
(** Reference (brute force) selection: highest specificity, as
    (url, client, method, headers) compared lexicographically in the
    paper's precedence order; ties go to the latest registration.
    [None] when no policy is valid. *)
