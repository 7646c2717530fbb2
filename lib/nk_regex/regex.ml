exception Parse_error of string

type node =
  | Empty
  | Char of char
  | Any
  | Class of (char * char) list * bool (* ranges, negated *)
  | Seq of node list
  | Alt of node * node
  | Star of node
  | Plus of node
  | Opt of node
  | Repeat of node * int * int option (* {m}, {m,n}; None = unbounded *)
  | Bol
  | Eol

type t = { pattern : string; node : node }

(* --- parser: recursive descent over the pattern string --- *)

type parser_state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> raise (Parse_error (Printf.sprintf "expected '%c' at %d" c st.pos))

let parse_escape st =
  match peek st with
  | None -> raise (Parse_error "trailing backslash")
  | Some c ->
    advance st;
    (match c with
     | 'd' -> Class ([ ('0', '9') ], false)
     | 'D' -> Class ([ ('0', '9') ], true)
     | 'w' -> Class ([ ('a', 'z'); ('A', 'Z'); ('0', '9'); ('_', '_') ], false)
     | 'W' -> Class ([ ('a', 'z'); ('A', 'Z'); ('0', '9'); ('_', '_') ], true)
     | 's' -> Class ([ (' ', ' '); ('\t', '\t'); ('\n', '\n'); ('\r', '\r') ], false)
     | 'S' -> Class ([ (' ', ' '); ('\t', '\t'); ('\n', '\n'); ('\r', '\r') ], true)
     | 'n' -> Char '\n'
     | 't' -> Char '\t'
     | 'r' -> Char '\r'
     | c -> Char c)

let parse_class st =
  (* called after '[' consumed *)
  let negated =
    match peek st with
    | Some '^' ->
      advance st;
      true
    | _ -> false
  in
  let ranges = ref [] in
  let rec loop first =
    match peek st with
    | None -> raise (Parse_error "unterminated character class")
    | Some ']' when not first -> advance st
    | Some c ->
      advance st;
      let c =
        if c = '\\' then
          match peek st with
          | None -> raise (Parse_error "trailing backslash in class")
          | Some e ->
            advance st;
            (match e with 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r' | e -> e)
        else c
      in
      (match peek st with
       | Some '-' when st.pos + 1 < String.length st.src && st.src.[st.pos + 1] <> ']' ->
         advance st;
         (match peek st with
          | None -> raise (Parse_error "unterminated range")
          | Some hi ->
            advance st;
            if hi < c then raise (Parse_error "reversed range");
            ranges := (c, hi) :: !ranges)
       | _ -> ranges := (c, c) :: !ranges);
      loop false
  in
  loop true;
  Class (List.rev !ranges, negated)

let parse_int st =
  let start = st.pos in
  while (match peek st with Some c when c >= '0' && c <= '9' -> true | _ -> false) do
    advance st
  done;
  if st.pos = start then raise (Parse_error "expected integer in repetition");
  int_of_string (String.sub st.src start (st.pos - start))

let rec parse_alt st =
  let left = parse_seq st in
  match peek st with
  | Some '|' ->
    advance st;
    Alt (left, parse_alt st)
  | _ -> left

and parse_seq st =
  let items = ref [] in
  let rec loop () =
    match peek st with
    | None | Some '|' | Some ')' -> ()
    | Some _ ->
      items := parse_postfix st :: !items;
      loop ()
  in
  loop ();
  match List.rev !items with [] -> Empty | [ x ] -> x | xs -> Seq xs

and parse_postfix st =
  let atom = parse_atom st in
  let rec apply atom =
    match peek st with
    | Some '*' ->
      advance st;
      apply (Star atom)
    | Some '+' ->
      advance st;
      apply (Plus atom)
    | Some '?' ->
      advance st;
      apply (Opt atom)
    | Some '{' ->
      advance st;
      let m = parse_int st in
      let n =
        match peek st with
        | Some ',' ->
          advance st;
          (match peek st with
           | Some '}' -> None
           | _ -> Some (parse_int st))
        | _ -> Some m
      in
      expect st '}';
      (match n with
       | Some n when n < m -> raise (Parse_error "reversed repetition bounds")
       | _ -> ());
      apply (Repeat (atom, m, n))
    | _ -> atom
  in
  apply atom

and parse_atom st =
  match peek st with
  | None -> raise (Parse_error "unexpected end of pattern")
  | Some '(' ->
    advance st;
    let inner = parse_alt st in
    expect st ')';
    inner
  | Some '[' ->
    advance st;
    parse_class st
  | Some '.' ->
    advance st;
    Any
  | Some '^' ->
    advance st;
    Bol
  | Some '$' ->
    advance st;
    Eol
  | Some '\\' ->
    advance st;
    parse_escape st
  | Some ('*' | '+' | '?') -> raise (Parse_error "quantifier with nothing to repeat")
  | Some c ->
    advance st;
    Char c

let compile pattern =
  let st = { src = pattern; pos = 0 } in
  let node = parse_alt st in
  if st.pos <> String.length pattern then
    raise (Parse_error (Printf.sprintf "unexpected ')' at %d" st.pos));
  { pattern; node }

(* --- matcher: CPS backtracking --- *)

let class_matches ranges negated c =
  let inside = List.exists (fun (lo, hi) -> c >= lo && c <= hi) ranges in
  if negated then not inside else inside

(* Every matcher call is one step, reported to the caller's [step]; a
   pattern like "(a*)*b" takes exponentially many on a long run of
   "a", and a caller that raises from [step] (a script out of fuel, a
   header predicate over its bound) stops the match. *)
let rec mtch step node s i (k : int -> bool) =
  step ();
  match node with
  | Empty -> k i
  | Char c -> i < String.length s && s.[i] = c && k (i + 1)
  | Any -> i < String.length s && k (i + 1)
  | Class (ranges, neg) -> i < String.length s && class_matches ranges neg s.[i] && k (i + 1)
  | Bol -> i = 0 && k i
  | Eol -> i = String.length s && k i
  | Seq nodes ->
    let rec go nodes i =
      match nodes with
      | [] -> k i
      | n :: rest -> mtch step n s i (fun j -> go rest j)
    in
    go nodes i
  | Alt (a, b) -> mtch step a s i k || mtch step b s i k
  | Opt n -> mtch step n s i k || k i
  | Star n ->
    (* greedy; guard against zero-width loops by requiring progress *)
    let rec star i = mtch step n s i (fun j -> j > i && star j) || k i in
    star i
  | Plus n -> mtch step n s i (fun j -> mtch step (Star n) s j k)
  | Repeat (n, m, bound) ->
    let rec must count i =
      if count = 0 then may 0 i else mtch step n s i (fun j -> must (count - 1) j)
    and may used i =
      match bound with
      | Some n_max when m + used >= n_max -> k i
      | _ -> mtch step n s i (fun j -> j > i && may (used + 1) j) || k i
    in
    must m i

let match_at t ~step s i =
  let result = ref None in
  let ok =
    mtch step t.node s i (fun j ->
        result := Some j;
        true)
  in
  if ok then !result else None

let find t ~step s =
  let n = String.length s in
  let rec scan i =
    if i > n then None
    else
      match match_at t ~step s i with
      | Some j -> Some (i, j)
      | None -> scan (i + 1)
  in
  scan 0

let matches t ~step s = find t ~step s <> None

let find_all t ~step s =
  let n = String.length s in
  let rec scan i acc =
    if i > n then List.rev acc
    else
      match match_at t ~step s i with
      | Some j when j > i -> scan j ((i, j) :: acc)
      | Some j -> scan (j + 1) ((i, j) :: acc) (* zero-width: force progress *)
      | None -> scan (i + 1) acc
  in
  scan 0 []

let replace t ~step ~by s =
  let parts = find_all t ~step s in
  let buf = Buffer.create (String.length s) in
  let last = ref 0 in
  List.iter
    (fun (i, j) ->
      Buffer.add_substring buf s !last (i - !last);
      Buffer.add_string buf by;
      last := j)
    parts;
  Buffer.add_substring buf s !last (String.length s - !last);
  Buffer.contents buf

let split t ~step s =
  let parts = find_all t ~step s in
  let segments = ref [] in
  let last = ref 0 in
  List.iter
    (fun (i, j) ->
      segments := String.sub s !last (i - !last) :: !segments;
      last := j)
    parts;
  segments := String.sub s !last (String.length s - !last) :: !segments;
  List.rev !segments

let source t = t.pattern
