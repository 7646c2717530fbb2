open Nk_script.Value

(* Compiled patterns a context keeps; a script that cycles through more
   starts the table over, so its size stays bounded. *)
let cache_capacity = 64

let install ctx =
  let compiled : (string, Nk_regex.Regex.t) Hashtbl.t = Hashtbl.create 16 in
  let get_regex pattern =
    match Hashtbl.find_opt compiled pattern with
    | Some r -> r
    | None -> (
      try
        let r = Nk_regex.Regex.compile pattern in
        if Hashtbl.length compiled >= cache_capacity then Hashtbl.reset compiled;
        Hashtbl.add compiled pattern r;
        r
      with Nk_regex.Regex.Parse_error msg -> error "Regex: bad pattern %S: %s" pattern msg)
  in
  (* Matcher steps are script work: one fuel each. *)
  let step () = Nk_script.Interp.consume_fuel ctx 1 in
  let o = new_obj () in
  obj_set o "test"
    (native "test" (fun _ args ->
         Vbool (Nk_regex.Regex.matches (get_regex (to_string (arg 0 args))) ~step (to_string (arg 1 args)))));
  obj_set o "find"
    (native "find" (fun _ args ->
         let s = to_string (arg 1 args) in
         match Nk_regex.Regex.find (get_regex (to_string (arg 0 args))) ~step s with
         | Some (i, j) -> Vstr (String.sub s i (j - i))
         | None -> Vnull));
  obj_set o "replace"
    (native "replace" (fun _ args ->
         Vstr
           (Nk_regex.Regex.replace
              (get_regex (to_string (arg 0 args)))
              ~step ~by:(to_string (arg 1 args))
              (to_string (arg 2 args)))));
  obj_set o "split"
    (native "split" (fun _ args ->
         let parts =
           Nk_regex.Regex.split (get_regex (to_string (arg 0 args))) ~step (to_string (arg 1 args))
         in
         Varr (new_arr (List.map (fun p -> Vstr p) parts))));
  Nk_script.Interp.define_global ctx "Regex" (Vobj o)
