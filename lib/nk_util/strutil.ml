let starts_with ~prefix s =
  let lp = String.length prefix in
  String.length s >= lp && String.sub s 0 lp = prefix

let ends_with ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

let split_first c s =
  match String.index_opt s c with
  | None -> None
  | Some i -> Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

(* Top-level scanners, so a search allocates nothing but its answer. *)
let rec matches_at s sub i j =
  j = String.length sub || (s.[i + j] = sub.[j] && matches_at s sub i (j + 1))

let rec find_from s sub i =
  if i > String.length s - String.length sub then -1
  else if matches_at s sub i 0 then i
  else find_from s sub (i + 1)

let index_sub s ~sub ~start =
  if sub = "" then Some start
  else match find_from s sub (max 0 start) with -1 -> None | i -> Some i

let contains_sub s ~sub = index_sub s ~sub ~start:0 <> None

let count_sub s ~sub =
  let lsub = String.length sub in
  let rec go i n = match find_from s sub i with -1 -> n | j -> go (j + lsub) (n + 1) in
  if lsub = 0 then 0 else go 0 0

let replace_all s ~sub ~by =
  if sub = "" then s
  else begin
    let buf = Buffer.create (String.length s) in
    let lsub = String.length sub in
    let rec go i =
      match index_sub s ~sub ~start:i with
      | None -> Buffer.add_substring buf s i (String.length s - i)
      | Some j ->
        Buffer.add_substring buf s i (j - i);
        Buffer.add_string buf by;
        go (j + lsub)
    in
    go 0;
    Buffer.contents buf
  end
