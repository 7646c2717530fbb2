(** Per-request deadline budgets (tail tolerance).

    Minted once at admission from [Config.request_deadline], carried as
    an absolute expiry against the simulated clock, and propagated on
    every internal hop via the {!header} request header (remaining
    seconds at send time). Downstream hops clamp their per-hop timeouts
    to the remaining budget and shed work whose budget is below their
    queue-delay estimate — computing an answer nobody will wait for
    only steals capacity from requests that can still be saved. *)

type t

val header : string
(** ["X-NaKika-Deadline"] — remaining budget in seconds, stamped on
    outgoing internal requests. *)

val of_request : now:float -> Nk_http.Message.request -> t option
(** Parse a carried budget from the {!header} header; [None] when the
    header is absent or malformed. A non-positive value parses to an
    already-expired budget (the receiver must still answer 504). *)

val admit : now:float -> budget:float -> Nk_http.Message.request -> t option
(** The tighter of a freshly minted budget ([budget <= 0] mints
    nothing) and any budget the request already carries; [None] when
    neither exists — the request runs deadline-free, exactly as before
    this layer existed. *)

val stamp : t -> now:float -> Nk_http.Message.request -> unit
(** Write the remaining budget into the {!header} header. *)

val remaining : t -> now:float -> float

val expired : t -> now:float -> bool

val clamp : t -> now:float -> float -> float
(** [clamp t ~now timeout] = [min timeout (max 0 remaining)] — the
    effective per-hop timeout under this budget. *)

val expired_response :
  ?retry_after:float -> reason:string -> unit -> Nk_http.Message.response
(** An immediate 504 with the reason in its [X-NaKika-Timeout] header
    and a [Retry-After] hint. *)
