(** The SIMMs: the web-based medical-education workload of §5.2.

    Synthetic stand-in for NYU's Surgical Interactive Multimedia
    Modules: five modules of personalized XML lectures (rendered to
    HTML by a stylesheet that is the same for all students) plus large
    multimedia objects streamed at a 140 Kbps bitrate.

    Two deployments are compared:
    - [Single_server]: the origin personalizes *and* renders
      (Tomcat/MySQL-style; the expensive path).
    - [Edge]: the origin only personalizes XML; rendering and media
      distribution are offloaded to Na Kika via [nakika_js]. *)

type mode = Single_server | Edge

val host : string
(** "simm.med.nyu.edu" *)

val video_bytes : int
(** ~350 KB per media object. *)

val video_bitrate : float
(** 140 Kbps in bytes/second — the SIMMs' video bitrate; playback is
    uninterrupted when achieved bandwidth is at least this. *)

val lecture_xml : module_:int -> lecture:int -> student:string -> string
(** The personalized XML document the origin generates. *)

val stylesheet : Nk_vocab.Xml.stylesheet
(** The (student-independent) rendering rules. *)

val render_html : module_:int -> lecture:int -> student:string -> string
(** What the single-server deployment returns: personalize + render. *)

val install_origin : Nk_node.Origin.t -> unit
(** Install both deployments' resources: [/content/...] (personalized
    XML), [/rendered/...] (personalized + rendered HTML), [/media/...]
    (video), and [/nakika.js]. *)

val nakika_js : string
(** The site script: renders [text/xml] lecture responses to HTML at
    the edge with the [Xml] vocabulary. *)

val make_request : rng:Nk_util.Prng.t -> mode:mode -> student:string -> Nk_http.Message.request
(** 85% lecture page, 15% video, uniform over the catalog. *)

val is_video : Nk_http.Message.request -> bool
