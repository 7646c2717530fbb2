(** The four §5.4 extensions as NKScript sources, with the paper's
    line-of-code accounting. The examples directory demonstrates each
    interactively; the bench harness runs them headlessly and reports
    size against the paper's numbers (annotations 50+180 LoC, image
    transcoding 80 LoC, blacklist blocking 70 LoC, Na Kika Pages
    ~60 LoC). *)

val image_transcoding : string
(** Fig. 2 generalized: device detection by User-Agent plus caching of
    transformed content. *)

val blacklist_generator : url:string -> string
(** The stage that reads a blacklist from [url] and generates the
    blocking policies. *)

val annotations : site:string -> target_site:string -> string
(** The electronic post-it-notes service: [site] interposes on
    [target_site]. *)

val loc : string -> int
(** Non-blank lines of code, the paper's counting unit. *)

val all : (string * string * int) list
(** (name, source, paper's reported LoC). *)
