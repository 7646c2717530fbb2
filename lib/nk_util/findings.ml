type t = { mutable found : string list (* newest first *) }

let create () = { found = [] }

let reject t fmt = Printf.ksprintf (fun m -> t.found <- m :: t.found) fmt

let positive t name v = if v <= 0.0 then reject t "%s must be positive (got %g)" name v

let positive_int t name v = if v <= 0 then reject t "%s must be positive (got %d)" name v

let to_list t = List.rev t.found
