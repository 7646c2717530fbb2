type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Json_error of string

type parser_state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let fail st msg = raise (Json_error (Printf.sprintf "%s at offset %d" msg st.pos))

let skip_ws st =
  while (match peek st with Some (' ' | '\t' | '\n' | '\r') -> true | _ -> false) do
    advance st
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> fail st (Printf.sprintf "expected '%c'" c)

let parse_string_body st =
  (* called after the opening quote *)
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
      advance st;
      match peek st with
      | None -> fail st "trailing escape"
      | Some c ->
        advance st;
        (match c with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'n' -> Buffer.add_char buf '\n'
         | 't' -> Buffer.add_char buf '\t'
         | 'r' -> Buffer.add_char buf '\r'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'u' ->
           (* \uXXXX: decode BMP code points to UTF-8 *)
           if st.pos + 4 > String.length st.src then fail st "truncated \\u escape";
           let hex = String.sub st.src st.pos 4 in
           st.pos <- st.pos + 4;
           (match int_of_string_opt ("0x" ^ hex) with
            | None -> fail st "bad \\u escape"
            | Some code ->
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end)
         | c -> fail st (Printf.sprintf "bad escape '\\%c'" c));
        go ())
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek st with Some c when is_num_char c -> true | _ -> false) do
    advance st
  done;
  match float_of_string_opt (String.sub st.src start (st.pos - start)) with
  | Some n -> Num n
  | None -> fail st "bad number"

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '"' ->
    advance st;
    Str (parse_string_body st)
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws st;
        expect st '"';
        let key = parse_string_body st in
        skip_ws st;
        expect st ':';
        let value = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          fields ((key, value) :: acc)
        | Some '}' ->
          advance st;
          List.rev ((key, value) :: acc)
        | _ -> fail st "expected ',' or '}'"
      in
      Obj (fields [])
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      Arr []
    end
    else begin
      let rec items acc =
        let value = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          items (value :: acc)
        | Some ']' ->
          advance st;
          List.rev (value :: acc)
        | _ -> fail st "expected ',' or ']'"
      in
      Arr (items [])
    end
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some 'n' -> parse_literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected character '%c'" c)

let parse src =
  let st = { src; pos = 0 } in
  try
    let v = parse_value st in
    skip_ws st;
    if st.pos <> String.length src then Error "trailing content"
    else Ok v
  with Json_error msg -> Error msg

(* The escaping is the metrics exporters': one JSON string syntax. *)
let escape_string buf s =
  Buffer.add_char buf '"';
  Buffer.add_string buf (Nk_telemetry.Metrics.json_escape s);
  Buffer.add_char buf '"'

let print t =
  let buf = Buffer.create 64 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Num n ->
      if Float.is_integer n && Float.abs n < 1e15 then
        Buffer.add_string buf (string_of_int (int_of_float n))
      else Buffer.add_string buf (Printf.sprintf "%.17g" n)
    | Str s -> escape_string buf s
    | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          go item)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          go v)
        fields;
      Buffer.add_char buf '}'
  in
  go t;
  Buffer.contents buf
