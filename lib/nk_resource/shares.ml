type t = (string * float) list (* ordered: first match wins *)

let create entries = entries

let is_empty t = t = []

let matches ~pattern site =
  pattern = "*" || pattern = site
  || String.length pattern > 2
     && String.length site > String.length pattern - 2
     && String.sub pattern 0 2 = "*."
     &&
     (* "*.suffix" covers any host strictly under ".suffix". *)
     let suffix = String.sub pattern 1 (String.length pattern - 1) in
     String.sub site (String.length site - String.length suffix) (String.length suffix)
     = suffix

let fraction t ~site =
  List.find_map (fun (pattern, f) -> if matches ~pattern site then Some f else None) t

let reserved t = List.fold_left (fun acc (_, f) -> acc +. f) 0.0 t
