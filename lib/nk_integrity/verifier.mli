(** The probabilistic verification model for *processed* content (§6).

    Hashes cannot protect content generated on untrusted nodes, so
    clients forward a sampled fraction of received content to another
    proxy, which repeats the processing; mismatches are reported to a
    trusted registry that evicts nodes past a report threshold. *)

type t

val create : sample_fraction:float -> t
(** Sample [sample_fraction] of responses; evict a node after 3
    corroborated reports. *)

val should_sample : t -> rng:Nk_util.Prng.t -> bool

val register_node : t -> string -> unit

val is_member : t -> string -> bool

val check :
  t -> node:string -> original:string -> reexecuted:string -> [ `Match | `Mismatch_reported ]
(** Compare the content a node served against an independent
    re-execution; a mismatch files a report, and the report that
    reaches the threshold evicts the node ({!is_member} turns false). *)
