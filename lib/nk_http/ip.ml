type t = int32

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
    let parse x =
      match int_of_string_opt x with Some v when v >= 0 && v <= 255 -> Some v | _ -> None
    in
    match (parse a, parse b, parse c, parse d) with
    | Some a, Some b, Some c, Some d ->
      Ok
        (Int32.logor
           (Int32.shift_left (Int32.of_int a) 24)
           (Int32.of_int ((b lsl 16) lor (c lsl 8) lor d)))
    | _ -> Error ("bad IPv4 octet in " ^ s))
  | _ -> Error ("bad IPv4 address: " ^ s)

let of_string_exn s =
  match of_string s with Ok t -> t | Error e -> invalid_arg ("Ip.of_string_exn: " ^ e)

let to_string t =
  let octet shift =
    string_of_int (Int32.to_int (Int32.logand (Int32.shift_right_logical t shift) 0xFFl))
  in
  String.concat "." [ octet 24; octet 16; octet 8; octet 0 ]

let of_int32 x = x

type cidr = { base : int32; bits : int }

let cidr_of_string s =
  let addr_str, bits =
    match Nk_util.Strutil.split_first '/' s with
    | Some (a, b) -> (a, int_of_string_opt b)
    | None -> (s, Some 32)
  in
  match (of_string addr_str, bits) with
  | Ok base, Some bits when bits >= 0 && bits <= 32 -> Ok { base; bits }
  | Ok _, _ -> Error ("bad prefix length in " ^ s)
  | Error e, _ -> Error e

let mask bits =
  if bits = 0 then 0l else Int32.shift_left (-1l) (32 - bits)

let cidr_contains { base; bits } addr =
  let m = mask bits in
  Int32.logand base m = Int32.logand addr m

type client = { ip : t; hostname : string option }
