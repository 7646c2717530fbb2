(* The tree-walking NKScript evaluator, kept as the reference semantics
   that [Compile] — the only engine the library ships — is tested
   against: [Test_compile]'s differential runs random programs through
   both and compares values, globals, fuel, heap and errors, and
   [Test_analysis]'s scope-soundness property runs on it. It
   re-dispatches on the AST and resolves every name down a chain of
   hash tables: the most direct reading of the language, slow on purpose.

   It calls [Interp]'s runtime for member and index access, method
   dispatch, calls, [new] and every charge, but keeps its own binary
   operators, so [Compile]'s specialised ones are checked against an
   independent copy. Script closures are [Compiled_fn] values whose
   code runs this evaluator: their text ([function f() { ... }]), their
   48-byte allocation and their 4-unit invocation charge are those of
   compiled closures. *)

open Core.Script
open Value
open Interp

type env = { scopes : Value.scope list; this : Value.t }
(* [scopes] is innermost-first and always ends with the context globals. *)

let member_set obj name value =
  match obj with
  | Vobj o -> obj_set o name value
  | v -> error "cannot set property '%s' on a %s" name (type_name v)

let lookup env name =
  let rec go = function
    | [] -> None
    | scope :: rest -> ( match Hashtbl.find_opt scope name with Some r -> Some r | None -> go rest)
  in
  go env.scopes

let declare env name v =
  match env.scopes with
  | scope :: _ -> Hashtbl.replace scope name (ref v)
  | [] -> assert false

let rec eval ctx env (e : Ast.expr) : Value.t =
  charge_fuel ctx 1;
  match e.Ast.desc with
  | Ast.Undefined -> Vundefined
  | Ast.Null -> Vnull
  | Ast.Bool b -> Vbool b
  | Ast.Number n -> Vnum n
  | Ast.String s -> Vstr s
  | Ast.This -> env.this
  | Ast.Ident name -> (
    match lookup env name with
    | Some r -> !r
    | None -> error "'%s' is not defined" name)
  | Ast.Array_lit items ->
    let v = Varr (new_arr (List.map (eval ctx env) items)) in
    charge_alloc ctx v;
    v
  | Ast.Object_lit fields ->
    let o = new_obj () in
    List.iter (fun (k, fe) -> obj_set o k (eval ctx env fe)) fields;
    let v = Vobj o in
    charge_alloc ctx v;
    v
  | Ast.Func (params, body) ->
    let v = closure ctx env ~fname:"<anonymous>" params body in
    charge_alloc ctx v;
    v
  | Ast.Member (obj_e, name) -> member_get ctx (eval ctx env obj_e) name
  | Ast.Index (obj_e, idx_e) ->
    let obj = eval ctx env obj_e in
    let idx = eval ctx env idx_e in
    index_get ctx obj idx
  | Ast.Call (f_e, arg_es) -> eval_call ctx env f_e arg_es
  | Ast.New (ctor_e, arg_es) ->
    let ctor = eval ctx env ctor_e in
    let args = List.map (eval ctx env) arg_es in
    construct ctx ctor args
  | Ast.Assign (lv, op, rhs_e) ->
    let rhs = eval ctx env rhs_e in
    let value =
      match op with
      | None -> rhs
      | Some binop ->
        let old = read_lvalue ctx env lv in
        eval_binop ctx binop old rhs
    in
    write_lvalue ctx env lv value;
    value
  | Ast.Unop (op, e) -> (
    let v = eval ctx env e in
    match op with
    | Ast.Not -> Vbool (not (truthy v))
    | Ast.Neg -> Vnum (-.to_number v)
    | Ast.Bnot -> Vnum (float_of_int (lnot (to_int v)))
    | Ast.Typeof -> Vstr (type_name v))
  | Ast.Binop (op, a_e, b_e) ->
    let a = eval ctx env a_e in
    let b = eval ctx env b_e in
    eval_binop ctx op a b
  | Ast.Logical (Ast.And, a_e, b_e) ->
    let a = eval ctx env a_e in
    if truthy a then eval ctx env b_e else a
  | Ast.Logical (Ast.Or, a_e, b_e) ->
    let a = eval ctx env a_e in
    if truthy a then a else eval ctx env b_e
  | Ast.Cond (c, t, f) -> if truthy (eval ctx env c) then eval ctx env t else eval ctx env f
  | Ast.Incr (prefix, lv) -> step_lvalue ctx env lv 1.0 prefix
  | Ast.Decr (prefix, lv) -> step_lvalue ctx env lv (-1.0) prefix
  | Ast.Delete (obj_e, field) -> (
    match eval ctx env obj_e with
    | Vobj o ->
      obj_delete o field;
      Vbool true
    | v -> error "cannot delete property '%s' of a %s" field (type_name v))

and step_lvalue ctx env lv delta prefix =
  let old = to_number (read_lvalue ctx env lv) in
  let updated = old +. delta in
  write_lvalue ctx env lv (Vnum updated);
  Vnum (if prefix then updated else old)

and eval_binop ctx op a b =
  match op with
  | Ast.Add -> (
    match (a, b) with
    | (Vstr _, _ | _, Vstr _) ->
      let x = Interp.text ctx a in
      let v = Vstr (x ^ Interp.text ctx b) in
      charge_alloc ctx v;
      v
    | _ -> Vnum (to_number a +. to_number b))
  | Ast.Sub -> Vnum (to_number a -. to_number b)
  | Ast.Mul -> Vnum (to_number a *. to_number b)
  | Ast.Div -> Vnum (to_number a /. to_number b)
  | Ast.Mod ->
    let x = to_number a and y = to_number b in
    Vnum (Float.rem x y)
  | Ast.Eq -> Vbool (equal a b)
  | Ast.Neq -> Vbool (not (equal a b))
  | Ast.Lt -> compare_values a b (fun c -> c < 0)
  | Ast.Le -> compare_values a b (fun c -> c <= 0)
  | Ast.Gt -> compare_values a b (fun c -> c > 0)
  | Ast.Ge -> compare_values a b (fun c -> c >= 0)
  | Ast.Band -> Vnum (float_of_int (to_int a land to_int b))
  | Ast.Bor -> Vnum (float_of_int (to_int a lor to_int b))
  | Ast.Bxor -> Vnum (float_of_int (to_int a lxor to_int b))
  | Ast.Shl -> Vnum (float_of_int (to_int a lsl (to_int b land 31)))
  | Ast.Shr -> Vnum (float_of_int (to_int a asr (to_int b land 31)))

and compare_values a b test =
  match (a, b) with
  | Vstr x, Vstr y -> Vbool (test (String.compare x y))
  | _ ->
    let x = to_number a and y = to_number b in
    if Float.is_nan x || Float.is_nan y then Vbool false else Vbool (test (Float.compare x y))

and read_lvalue ctx env = function
  | Ast.Lident name -> (
    match lookup env name with Some r -> !r | None -> Vundefined)
  | Ast.Lmember (obj_e, name) -> member_get ctx (eval ctx env obj_e) name
  | Ast.Lindex (obj_e, idx_e) ->
    let obj = eval ctx env obj_e in
    let idx = eval ctx env idx_e in
    index_get ctx obj idx

and write_lvalue ctx env lv value =
  match lv with
  | Ast.Lident name -> (
    match lookup env name with
    | Some r -> r := value
    | None ->
      (* Assignment to an undeclared name creates a global, as in JS. *)
      Hashtbl.replace ctx.globals name (ref value))
  | Ast.Lmember (obj_e, name) -> member_set (eval ctx env obj_e) name value
  | Ast.Lindex (obj_e, idx_e) ->
    let obj = eval ctx env obj_e in
    let idx = eval ctx env idx_e in
    index_set ctx obj idx value

and eval_call ctx env f_e arg_es =
  match f_e.Ast.desc with
  | Ast.Member (obj_e, name) ->
    let obj = eval ctx env obj_e in
    let args = List.map (eval ctx env) arg_es in
    invoke_method ctx obj name args
  | _ ->
    let f = eval ctx env f_e in
    let args = List.map (eval ctx env) arg_es in
    apply ctx f args

(* A script closure: [Compiled_fn] code that runs this evaluator over
   the captured scope chain. [apply] has charged the 4-unit invocation
   fuel before [ccall] runs, for these closures as for compiled ones. *)
and closure ctx env ~fname params body =
  let ccall ctx ~this ~globals:_ _ args =
    let frame : Value.scope = Hashtbl.create 8 in
    let argv = Array.of_list args in
    let nargs = Array.length argv in
    List.iteri
      (fun i param ->
        let v = if i < nargs then argv.(i) else Vundefined in
        Hashtbl.replace frame param (ref v))
      params;
    let env = { scopes = frame :: env.scopes; this } in
    try
      exec_body ctx env body;
      Vundefined
    with
    | Return_exc v -> v
    (* break/continue must not cross a function boundary *)
    | Break_exc -> error "'break' outside of a loop"
    | Continue_exc -> error "'continue' outside of a loop"
  in
  Vfun (Compiled_fn { code = { cfname = fname; ccall }; captured = []; cglobals = ctx.globals })

and exec_body ctx env stmts =
  (* Hoist function declarations, as JavaScript does. *)
  List.iter
    (fun (s : Ast.stmt) ->
      match s.Ast.sdesc with
      | Ast.Sfunc (name, params, body) ->
        declare env name (closure ctx env ~fname:name params body)
      | _ -> ())
    stmts;
  List.iter (exec_stmt ctx env) stmts

and exec_stmt ctx env (s : Ast.stmt) =
  charge_fuel ctx 1;
  match s.Ast.sdesc with
  | Ast.Sexpr e -> ignore (eval ctx env e)
  | Ast.Svar bindings ->
    List.iter
      (fun (name, init) ->
        let v = match init with Some e -> eval ctx env e | None -> Vundefined in
        declare env name v)
      bindings
  | Ast.Sif (cond, then_b, else_b) ->
    if truthy (eval ctx env cond) then exec_body ctx env then_b else exec_body ctx env else_b
  | Ast.Swhile (cond, body) ->
    (try
       while truthy (eval ctx env cond) do
         try exec_body ctx env body with Continue_exc -> ()
       done
     with Break_exc -> ())
  | Ast.Sdo_while (body, cond) ->
    (try
       let continue = ref true in
       while !continue do
         (try exec_body ctx env body with Continue_exc -> ());
         continue := truthy (eval ctx env cond)
       done
     with Break_exc -> ())
  | Ast.Sfor (init, cond, step, body) ->
    Option.iter (exec_stmt ctx env) init;
    (try
       let check () = match cond with None -> true | Some c -> truthy (eval ctx env c) in
       while check () do
         (try exec_body ctx env body with Continue_exc -> ());
         Option.iter (fun e -> ignore (eval ctx env e)) step
       done
     with Break_exc -> ())
  | Ast.Sfor_in (name, subject_e, body) -> (
    let subject = eval ctx env subject_e in
    declare env name Vundefined;
    let bind v = match lookup env name with Some r -> r := v | None -> () in
    try
      match subject with
      | Vobj o ->
        List.iter
          (fun key ->
            bind (Vstr key);
            try exec_body ctx env body with Continue_exc -> ())
          (obj_keys o)
      | Varr a ->
        for i = 0 to a.len - 1 do
          bind (Vnum (float_of_int i));
          try exec_body ctx env body with Continue_exc -> ()
        done
      | Vnull | Vundefined -> ()
      | v -> error "cannot enumerate a %s" (type_name v)
    with Break_exc -> ())
  | Ast.Sreturn e -> raise (Return_exc (match e with Some e -> eval ctx env e | None -> Vundefined))
  | Ast.Sbreak -> raise Break_exc
  | Ast.Scontinue -> raise Continue_exc
  | Ast.Sfunc _ -> () (* hoisted by exec_body *)
  | Ast.Sblock stmts -> exec_body ctx env stmts
  | Ast.Sthrow e -> raise (Throw_exc (eval ctx env e))
  | Ast.Stry (body, name, handler) -> (
    try exec_body ctx env body
    with
    | Throw_exc v ->
      declare env name v;
      exec_body ctx env handler
    | Script_error msg ->
      declare env name (Vstr msg);
      exec_body ctx env handler)

let run ctx program =
  let env = { scopes = [ ctx.globals ]; this = Vundefined } in
  (* Toplevel: hoist functions, then run; remember last expression value. *)
  List.iter
    (fun (s : Ast.stmt) ->
      match s.Ast.sdesc with
      | Ast.Sfunc (name, params, body) ->
        define_global ctx name (closure ctx env ~fname:name params body)
      | _ -> ())
    program;
  let last = ref Vundefined in
  (try
     List.iter
       (fun (s : Ast.stmt) ->
         match s.Ast.sdesc with
         | Ast.Sexpr e -> last := eval ctx env e
         | _ -> exec_stmt ctx env s)
       program
   with
  | Return_exc v -> last := v
  | Throw_exc v -> error "uncaught exception: %s" (to_string v)
  | Break_exc -> error "'break' outside of a loop"
  | Continue_exc -> error "'continue' outside of a loop");
  !last

let run_string ctx src = run ctx (Parser.parse src)
