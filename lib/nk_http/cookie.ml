let parse s =
  String.split_on_char ';' s
  |> List.filter_map (fun part ->
         let part = String.trim part in
         if part = "" then None
         else
           match Nk_util.Strutil.split_first '=' part with
           | Some (k, v) -> Some (String.trim k, String.trim v)
           | None -> Some (part, ""))
