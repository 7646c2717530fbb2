(* Per-request deadline budgets. A budget is minted once, at the first
   Na Kika node a request reaches (from [Config.request_deadline]), and
   from then on only shrinks: every internal hop re-derives the
   remaining budget from the simulated clock and ships it in the
   [X-NaKika-Deadline] header, so origin, peer, and offload fetches run
   under [min (per-hop timeout) remaining] and a receiver can tell that
   the client has already stopped waiting. Represented as an absolute
   expiry instant — subtraction against the clock is the whole
   decrement logic, so there is no state to update as time passes. *)

type t = { expires : float }

let header = "X-NaKika-Deadline"

let reason_header = "X-NaKika-Timeout"

let mint ~now ~budget = { expires = now +. budget }

let remaining t ~now = t.expires -. now

let expired t ~now = remaining t ~now <= 0.0

let clamp t ~now timeout = Float.min timeout (Float.max 0.0 (remaining t ~now))

(* The header value is the budget still remaining at send time, in
   seconds — relative, not absolute, because the nodes share no wall
   clock (the simulator's clock stands in for per-node clocks). *)
let of_request ~now (req : Nk_http.Message.request) =
  match Nk_http.Message.req_header req header with
  | None -> None
  | Some v -> (
    match float_of_string_opt (String.trim v) with
    | Some rem when Float.is_finite rem -> Some { expires = now +. rem }
    | Some _ | None -> None)

let stamp t ~now req =
  Nk_http.Message.set_req_header req header (Printf.sprintf "%.6f" (remaining t ~now))

(* Admission-time combination: the tighter of the node's own minted
   budget ([budget <= 0] disables minting) and whatever an upstream
   Na Kika node already stamped on the request. *)
let admit ~now ~budget req =
  let minted = if budget > 0.0 then Some (mint ~now ~budget) else None in
  match (minted, of_request ~now req) with
  | None, None -> None
  | (Some _ as d), None | None, (Some _ as d) -> d
  | Some a, Some b -> Some { expires = Float.min a.expires b.expires }

(* An expired budget fails fast and machine-readably: 504 with the
   shedding point in [X-NaKika-Timeout] and a Retry-After hint, the
   same shape the admission/quarantine 503 paths use. *)
let expired_response ?(retry_after = 1.0) ~reason () =
  let resp = Nk_http.Message.error_response 504 in
  Nk_http.Message.set_resp_header resp reason_header reason;
  Nk_http.Message.set_resp_header resp "Retry-After"
    (string_of_int (max 1 (int_of_float (Float.ceil retry_after))));
  resp
