(* Precedence levels mirror the parser's grammar; an operand is
   parenthesized when its level is looser than its context requires. *)

let binop_token = function
  | Ast.Add -> "+"
  | Ast.Sub -> "-"
  | Ast.Mul -> "*"
  | Ast.Div -> "/"
  | Ast.Mod -> "%"
  | Ast.Eq -> "=="
  | Ast.Neq -> "!="
  | Ast.Lt -> "<"
  | Ast.Le -> "<="
  | Ast.Gt -> ">"
  | Ast.Ge -> ">="
  | Ast.Band -> "&"
  | Ast.Bor -> "|"
  | Ast.Bxor -> "^"
  | Ast.Shl -> "<<"
  | Ast.Shr -> ">>"

let binop_level = function
  | Ast.Mul | Ast.Div | Ast.Mod -> 11
  | Ast.Add | Ast.Sub -> 10
  | Ast.Shl | Ast.Shr -> 9
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> 8
  | Ast.Eq | Ast.Neq -> 7
  | Ast.Band -> 6
  | Ast.Bxor -> 5
  | Ast.Bor -> 4

let level_and = 3

let level_or = 2

let level_cond = 1

let level_assign = 0

let string_literal s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\x%02x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let number_literal n =
  if Float.is_integer n && Float.abs n < 1e15 then string_of_int (int_of_float n)
  else Printf.sprintf "%.12g" n

let is_plain_ident s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | '$' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' -> true | _ -> false)
       s

let indent_unit = "  "

let rec expr_prec level (e : Ast.expr) =
  (* [level] is the loosest precedence the context accepts; an operand
     printing at a tighter-or-equal level needs no parentheses. *)
  let wrap needed text = if needed >= level then text else "(" ^ text ^ ")" in
  match e.Ast.desc with
  | Ast.Undefined -> "undefined"
  | Ast.Null -> "null"
  | Ast.Bool b -> string_of_bool b
  | Ast.Number n -> number_literal n
  | Ast.String s -> string_literal s
  | Ast.Ident name -> name
  | Ast.This -> "this"
  | Ast.Array_lit items -> "[" ^ String.concat ", " (List.map (expr_prec level_assign) items) ^ "]"
  | Ast.Object_lit fields ->
    if fields = [] then "{}"
    else
      "{ "
      ^ String.concat ", "
          (List.map
             (fun (k, v) ->
               let key = if is_plain_ident k then k else string_literal k in
               key ^ ": " ^ expr_prec level_assign v)
             fields)
      ^ " }"
  | Ast.Func (params, body) ->
    Printf.sprintf "function(%s) %s" (String.concat ", " params) (block 0 body)
  | Ast.Member (obj, field) -> expr_prec 13 obj ^ "." ^ field
  | Ast.Index (obj, idx) -> expr_prec 13 obj ^ "[" ^ expr_prec level_assign idx ^ "]"
  | Ast.Call (f, args) ->
    expr_prec 13 f ^ "(" ^ String.concat ", " (List.map (expr_prec level_assign) args) ^ ")"
  | Ast.New (ctor, args) ->
    "new " ^ expr_prec 13 ctor ^ "("
    ^ String.concat ", " (List.map (expr_prec level_assign) args)
    ^ ")"
  | Ast.Assign (lv, op, rhs) ->
    let operator = match op with None -> "=" | Some o -> binop_token o ^ "=" in
    wrap level_assign
      (Printf.sprintf "%s %s %s" (lvalue lv) operator (expr_prec level_assign rhs))
  | Ast.Unop (op, operand) ->
    let token = match op with Ast.Neg -> "-" | Ast.Not -> "!" | Ast.Bnot -> "~" | Ast.Typeof -> "typeof " in
    let printed = expr_prec 12 operand in
    (* "- -x" must not fuse into the "--" decrement token. *)
    let sep = if token = "-" && printed <> "" && printed.[0] = '-' then " " else "" in
    wrap 12 (token ^ sep ^ printed)
  | Ast.Binop (op, a, b) ->
    let lv = binop_level op in
    wrap lv (Printf.sprintf "%s %s %s" (expr_prec lv a) (binop_token op) (expr_prec (lv + 1) b))
  | Ast.Logical (Ast.And, a, b) ->
    wrap level_and
      (Printf.sprintf "%s && %s" (expr_prec level_and a) (expr_prec (level_and + 1) b))
  | Ast.Logical (Ast.Or, a, b) ->
    wrap level_or (Printf.sprintf "%s || %s" (expr_prec level_or a) (expr_prec (level_or + 1) b))
  | Ast.Cond (c, t, f) ->
    wrap level_cond
      (Printf.sprintf "%s ? %s : %s"
         (expr_prec (level_cond + 1) c)
         (expr_prec level_assign t) (expr_prec level_assign f))
  | Ast.Incr (prefix, lv) -> if prefix then "++" ^ lvalue lv else lvalue lv ^ "++"
  | Ast.Decr (prefix, lv) -> if prefix then "--" ^ lvalue lv else lvalue lv ^ "--"
  | Ast.Delete (obj, field) -> wrap 12 ("delete " ^ expr_prec 13 obj ^ "." ^ field)

and lvalue = function
  | Ast.Lident name -> name
  | Ast.Lmember (obj, field) -> expr_prec 13 obj ^ "." ^ field
  | Ast.Lindex (obj, idx) -> expr_prec 13 obj ^ "[" ^ expr_prec level_assign idx ^ "]"

and block depth stmts =
  if stmts = [] then "{ }"
  else begin
    let inner =
      String.concat "" (List.map (fun s -> stmt_at (depth + 1) s ^ "\n") stmts)
    in
    let pad = String.concat "" (List.init depth (fun _ -> indent_unit)) in
    "{\n" ^ inner ^ pad ^ "}"
  end

and stmt_at depth (s : Ast.stmt) =
  let pad = String.concat "" (List.init depth (fun _ -> indent_unit)) in
  let line text = pad ^ text in
  match s.Ast.sdesc with
  | Ast.Sexpr e -> line (expr_prec level_assign e ^ ";")
  | Ast.Svar bindings ->
    line
      ("var "
      ^ String.concat ", "
          (List.map
             (fun (name, init) ->
               match init with
               | None -> name
               | Some e -> name ^ " = " ^ expr_prec level_assign e)
             bindings)
      ^ ";")
  | Ast.Sif (cond, then_b, []) ->
    line (Printf.sprintf "if (%s) %s" (expr_prec level_assign cond) (block depth then_b))
  | Ast.Sif (cond, then_b, else_b) ->
    line
      (Printf.sprintf "if (%s) %s else %s" (expr_prec level_assign cond) (block depth then_b)
         (block depth else_b))
  | Ast.Swhile (cond, body) ->
    line (Printf.sprintf "while (%s) %s" (expr_prec level_assign cond) (block depth body))
  | Ast.Sdo_while (body, cond) ->
    line (Printf.sprintf "do %s while (%s);" (block depth body) (expr_prec level_assign cond))
  | Ast.Sfor (init, cond, step, body) ->
    let init_text =
      match init with
      | None -> ""
      | Some s -> (
        (* reuse statement printing without the pad/semicolon shape *)
        match s.Ast.sdesc with
        | Ast.Svar _ | Ast.Sexpr _ ->
          let printed = String.trim (stmt_at 0 s) in
          String.sub printed 0 (String.length printed - 1) (* drop ';' *)
        | _ -> String.trim (stmt_at 0 s))
    in
    line
      (Printf.sprintf "for (%s; %s; %s) %s" init_text
         (match cond with None -> "" | Some e -> expr_prec level_assign e)
         (match step with None -> "" | Some e -> expr_prec level_assign e)
         (block depth body))
  | Ast.Sfor_in (name, subject, body) ->
    line
      (Printf.sprintf "for (var %s in %s) %s" name (expr_prec level_assign subject)
         (block depth body))
  | Ast.Sreturn None -> line "return;"
  | Ast.Sreturn (Some e) -> line ("return " ^ expr_prec level_assign e ^ ";")
  | Ast.Sbreak -> line "break;"
  | Ast.Scontinue -> line "continue;"
  | Ast.Sfunc (name, params, body) ->
    line (Printf.sprintf "function %s(%s) %s" name (String.concat ", " params) (block depth body))
  | Ast.Sblock stmts -> line (block depth stmts)
  | Ast.Sthrow e -> line ("throw " ^ expr_prec level_assign e ^ ";")
  | Ast.Stry (body, name, handler) ->
    line (Printf.sprintf "try %s catch (%s) %s" (block depth body) name (block depth handler))

let expr e = expr_prec level_assign e

let program stmts = String.concat "" (List.map (fun s -> stmt_at 0 s ^ "\n") stmts)

let format src =
  match Parser.parse src with
  | ast -> Ok (program ast)
  | exception Parser.Parse_error (msg, pos) ->
    Error (Printf.sprintf "parse error at %d:%d: %s" pos.Ast.line pos.Ast.col msg)
  | exception Lexer.Lex_error (msg, pos) ->
    Error (Printf.sprintf "lex error at %d:%d: %s" pos.Ast.line pos.Ast.col msg)
