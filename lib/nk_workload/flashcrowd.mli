(** The §5.1 resource-control experiments: a flash crowd hammering a
    well-behaved Match-1 site in a tight loop, optionally joined by a
    misbehaving site whose script "consumes all available memory by
    repeatedly doubling a string". *)

val good_host : string

val bomb_host : string

val install_good_site : Nk_node.Origin.t -> unit
(** The 2,096-byte static page plus a Match-1 site script. *)

val install_bomb_site : Nk_node.Origin.t -> unit
(** A page whose site script is the memory bomb. *)

val good_request : unit -> Nk_http.Message.request

val bomb_request : unit -> Nk_http.Message.request
