(** The script-facing [Policy] vocabulary.

    Scripts instantiate policy objects and activate them with
    [register()], as in Fig. 3:
    {v
      p = new Policy();
      p.url = ["med.nyu.edu"];
      p.onResponse = function() { ... };
      p.register();
    v} *)

type registry
(** Collects the policies a script registers while it is evaluated;
    one registry per pipeline stage. *)

val create_registry : unit -> registry

val policies : registry -> Policy.t list
(** In registration order. *)

val install : registry -> Nk_script.Interp.ctx -> unit
(** Define the global [Policy] constructor in the context; every
    [register()] call lands in [registry]. *)
