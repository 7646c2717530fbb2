type t = (string * string) list (* insertion order *)

let norm = String.lowercase_ascii

let of_list l = l

let to_list t = t

let get t name =
  let name = norm name in
  let rec go = function
    | [] -> None
    | (k, v) :: rest -> if norm k = name then Some v else go rest
  in
  go t

let get_all t name =
  let name = norm name in
  List.filter_map (fun (k, v) -> if norm k = name then Some v else None) t

let mem t name = get t name <> None

let remove t name =
  let name = norm name in
  List.filter (fun (k, _) -> norm k <> name) t

let set t name value =
  let nname = norm name in
  let replaced = ref false in
  let t' =
    List.filter_map
      (fun (k, v) ->
        if norm k = nname then
          if !replaced then None
          else begin
            replaced := true;
            Some (k, value)
          end
        else Some (k, v))
      t
  in
  if !replaced then t' else t @ [ (name, value) ]
