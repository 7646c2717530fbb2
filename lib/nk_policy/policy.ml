type t = {
  urls : string list;
  clients : string list;
  methods : string list;
  headers : (string * Nk_regex.Regex.t) list;
  on_request : Nk_script.Value.t option;
  on_response : Nk_script.Value.t option;
  next_stages : string list;
  order : int;
}

let make ~urls ~order =
  {
    urls;
    clients = [];
    methods = [];
    headers = [];
    on_request = None;
    on_response = None;
    next_stages = [];
    order;
  }

type score = int * int * int * int

let matches t (req : Nk_http.Message.request) =
  let property values f =
    match values with
    | [] -> Some 0 (* null property: treated as a truth value *)
    | _ -> Predicate.best f values
  in
  let ( let* ) = Option.bind in
  let* url_score = property t.urls (fun pattern -> Predicate.url ~pattern req.Nk_http.Message.url) in
  let* client_score =
    property t.clients (fun pattern -> Predicate.client ~pattern req.Nk_http.Message.client)
  in
  let* meth_score =
    property t.methods (fun pattern -> Predicate.meth ~pattern req.Nk_http.Message.meth)
  in
  (* Headers: conjunction over all listed headers. *)
  let* header_score =
    List.fold_left
      (fun acc (name, regex) ->
        let* acc = acc in
        let* s = Predicate.header ~name ~regex req.Nk_http.Message.headers in
        Some (acc + s))
      (Some 0) t.headers
  in
  Some (url_score, client_score, meth_score, header_score)

let compare_candidates (score_a, order_a) (score_b, order_b) =
  match compare (score_a : score) score_b with 0 -> compare order_a order_b | c -> c

let closest_match policies req =
  List.fold_left
    (fun best policy ->
      match matches policy req with
      | None -> best
      | Some score -> (
        match best with
        | Some (best_score, best_order, _) when
            compare_candidates (best_score, best_order) (score, policy.order) >= 0 ->
          best
        | _ -> Some (score, policy.order, policy)))
    None policies
  |> Option.map (fun (_, _, p) -> p)
