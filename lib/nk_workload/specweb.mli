(** The modified SPECweb99 workload of §5.3.

    80% dynamic / 20% static requests against either
    - [Php]: a single Apache+PHP-style origin that runs the dynamic
      scripts itself (expensive origin CPU, uncacheable responses), or
    - [Nakika]: the same content as Na Kika Pages — the origin serves
      cacheable [.nkp] sources and the edge executes them, managing
      user registrations and profiles in replicated hard state.

    The Na Kika version relies on the [nkp.js] stage hosted at
    nakika.net and on the [HardState] vocabulary. *)

type mode = Php | Nakika

val host : string
(** "www.spec99.org" *)

val install_origin : Nk_node.Origin.t -> unit
(** Install both variants: [/cgi/...] dynamic handlers (PHP mode),
    [/nkp/...] page sources and [/nakika.js] (Na Kika mode), and the
    static file set. *)

val make_request : rng:Nk_util.Prng.t -> mode:mode -> Nk_http.Message.request
(** The 80/20 dynamic/static mix: dynamic requests register a user or
    look up a profile. *)
