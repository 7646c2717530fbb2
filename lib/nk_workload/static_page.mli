(** The §5.1 micro-benchmark workload: a single static 2,096-byte
    document (Google's home page without inline images) plus the
    Pred-n / Match-1 site-script generators of Table 1. *)

val page_body : string
(** Exactly 2096 bytes of plausible HTML. *)

val page_path : string
(** "/index.html" *)

val install : Nk_node.Origin.t -> unit
(** Serve the page (max-age 300). *)

val pred_script : host:string -> n:int -> matching:bool -> string
(** A site script registering [n] policy objects whose URL predicates
    never match requests to [host] plus, when [matching], one policy
    for [host] with empty event handlers. [pred_script ~n:0
    ~matching:false] yields a script registering nothing — the Pred-0
    configuration. *)
