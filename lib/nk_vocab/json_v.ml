open Nk_script.Value

let value_to_json ?(max_depth = 64) value =
  let rec go depth v =
    if depth > max_depth then error "JSON.stringify: structure too deep (cycle?)";
    match v with
    | Vundefined | Vnull -> Json.Null
    | Vbool b -> Json.Bool b
    | Vnum n -> Json.Num n
    | Vstr s -> Json.Str s
    | Vbytes b -> Json.Str (bytes_to_string b)
    | Varr a -> Json.Arr (List.map (go (depth + 1)) (arr_to_list a))
    | Vobj o -> Json.Obj (List.map (fun k -> (k, go (depth + 1) (obj_get o k))) (obj_keys o))
    | Vfun _ -> Json.Null
  in
  go 0 value

let rec json_to_value = function
  | Json.Null -> Vnull
  | Json.Bool b -> Vbool b
  | Json.Num n -> Vnum n
  | Json.Str s -> Vstr s
  | Json.Arr items -> Varr (new_arr (List.map json_to_value items))
  | Json.Obj fields ->
    let o = new_obj () in
    List.iter (fun (k, v) -> obj_set o k (json_to_value v)) fields;
    Vobj o

let install ctx =
  let o = new_obj () in
  obj_set o "stringify"
    (native "stringify" (fun _ args ->
         let out = Json.print (value_to_json (arg 0 args)) in
         Nk_script.Interp.consume_fuel ctx (String.length out);
         Vstr out));
  obj_set o "parse"
    (native "parse" (fun _ args ->
         let src = to_string (arg 0 args) in
         Nk_script.Interp.consume_fuel ctx (String.length src);
         match Json.parse src with Ok j -> json_to_value j | Error _ -> Vnull));
  Nk_script.Interp.define_global ctx "JSON" (Vobj o)
