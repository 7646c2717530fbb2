type t = (string * string) list (* insertion order *)

(* ASCII case-insensitive name equality, the same relation as comparing
   [String.lowercase_ascii] copies, without making them. *)
let name_equal a b =
  let n = String.length a in
  n = String.length b
  &&
  let rec go i =
    i = n
    || Char.lowercase_ascii (String.unsafe_get a i) = Char.lowercase_ascii (String.unsafe_get b i)
       && go (i + 1)
  in
  go 0

let of_list l = l

let to_list t = t

let get t name =
  let rec go = function
    | [] -> None
    | (k, v) :: rest -> if name_equal k name then Some v else go rest
  in
  go t

let mem t name = List.exists (fun (k, _) -> name_equal k name) t

let remove t name = List.filter (fun (k, _) -> not (name_equal k name)) t

let set t name value =
  let replaced = ref false in
  let t' =
    List.filter_map
      (fun (k, v) ->
        if name_equal k name then
          if !replaced then None
          else begin
            replaced := true;
            Some (k, value)
          end
        else Some (k, v))
      t
  in
  if !replaced then t' else t @ [ (name, value) ]
