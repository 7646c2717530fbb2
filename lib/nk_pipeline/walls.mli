(** Administrative-control scripts (§3.1, §3.2).

    The client-side wall performs admission control over clients'
    access to the network; the server-side wall performs emission
    control over hosted scripts' access to web resources. Defaults are
    permissive (one matching predicate, empty handlers — the paper's
    Admin configuration); deployments override them with real policy
    scripts such as [rate_limit_wall] below. *)

val default_client_wall : string
(** Matches everything, runs an empty [onRequest]. *)

val default_server_wall : string
(** Matches everything, runs an empty [onResponse]. *)

val rate_limit_wall : max_per_client:int -> string
(** Admission control that rejects a client's requests beyond a count
    budget tracked in hard state (429). *)
