type t = {
  max_age : int option;
  s_maxage : int option;
  no_cache : bool;
  no_store : bool;
  private_ : bool;
  public : bool;
  must_revalidate : bool;
}

let empty =
  {
    max_age = None;
    s_maxage = None;
    no_cache = false;
    no_store = false;
    private_ = false;
    public = false;
    must_revalidate = false;
  }

let parse s =
  let directives =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun d -> d <> "")
  in
  List.fold_left
    (fun acc d ->
      let key, value =
        match Nk_util.Strutil.split_first '=' d with
        | Some (k, v) -> (String.lowercase_ascii k, Some (String.trim v))
        | None -> (String.lowercase_ascii d, None)
      in
      let int_value () = Option.bind value int_of_string_opt in
      match key with
      | "max-age" -> { acc with max_age = int_value () }
      | "s-maxage" -> { acc with s_maxage = int_value () }
      | "no-cache" -> { acc with no_cache = true }
      | "no-store" -> { acc with no_store = true }
      | "private" -> { acc with private_ = true }
      | "public" -> { acc with public = true }
      | "must-revalidate" -> { acc with must_revalidate = true }
      | _ -> acc)
    empty directives

let cacheable t = not (t.no_store || t.private_ || t.no_cache)

let expiry ~now ~date ~cache_control:cc ~expires =
  if not (cacheable cc) then None
  else
    match cc.s_maxage with
    | Some age -> Some (now +. float_of_int age)
    | None -> (
      match cc.max_age with
      | Some age -> Some (now +. float_of_int age)
      | None -> (
        match expires () with
        | Some exp ->
          (* Expires is absolute; interpret relative to the response Date
             when present so clock skew between origin and proxy cancels. *)
          let base = Option.value (date ()) ~default:now in
          Some (now +. (exp -. base))
        | None -> None))
