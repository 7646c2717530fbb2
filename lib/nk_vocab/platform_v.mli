(** The host-bound vocabularies: [System], [Cache], [HardState],
    [Messages], [Crypto], [Log] and the global [fetchResource]
    (§3.1, §3.3). All close over a {!Hostcall.t}. *)

val install_all : Hostcall.t -> ?seed:int -> Nk_script.Interp.ctx -> unit
(** Everything a pipeline context needs besides the per-request
    [Request]/[Response] globals: base builtins, [ImageTransformer],
    [Xml], [Regex], [JSON], [MovieTranscoder], and the host-bound set. *)
