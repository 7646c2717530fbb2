(* Scope/resolution pass: a must-bound dataflow analysis over the AST
   that mirrors the interpreter's environment semantics exactly.

   The interpreter's bindings are monotone — [declare] and global-
   creating assignment only ever add names, nothing unbinds — so "the
   set of names definitely bound when control reaches this point" is a
   plain flat set threaded through the program in evaluation order.
   Reading an identifier outside that set (and outside the installed
   builtins/vocabulary) raises ["'x' is not defined"] at runtime; we
   report it here, at admission time, with the right position.

   Soundness notes (these match the reference semantics in
   [test/reference_interp.ml], which [Compile] reproduces, case by case):
   - [run] hoists direct toplevel [function f] declarations into
     the globals before executing anything, and [exec_body] does the
     same per statement list on entry: hoisted names join the must-set
     at list entry.
   - A function body only runs at some call.  Its entry set is the
     must-set at closure creation (the captured frames are mutated in
     place, so later additions stay visible) plus its parameters and
     own hoisted functions, plus the "first-call refinement" [s_refine]:
     everything the toplevel prefix before the first call-containing
     statement definitely binds, since no function body can execute
     before the first toplevel call.
   - Assignment to a plain identifier never raises — a missing binding
     silently creates a global — so [x = e] and [x++] add [x].
   - Conditional constructs join by intersection; loop bodies/steps may
     run zero times and contribute nothing to the out-set.

   Severity: a read outside the must-set is an Error ("undefined-var")
   unless the name is assigned *somewhere* in the program (assignments
   create globals, so the read races the assignment rather than being
   definitely wrong) — that demotes to a Warning ("use-before-assign").
   A read that the must-set covers via an outer binding while a local
   [var] of the same name has not executed yet gets a Warning
   ("use-before-decl"): legal, but almost always a hoisting surprise. *)

open Nk_script
module S = Set.Make (String)

type binding_kind = Param | Var | Func_decl | Catch | Loop

type fctx = {
  (* [var]-declared names of this function body (not nested functions):
     the temporal-shadowing candidates. *)
  local_vars : S.t;
  (* Subset declared somewhere control may have skipped or already
     visited (an [if]/loop/[try] body): for these, "not in the must-set"
     only means *may* be undefined, never *definitely*. *)
  conditional_vars : S.t;
  mutable declared : S.t;  (* subset whose declaration has executed *)
  uses : (string, unit) Hashtbl.t;
  mutable bindings : (string * Ast.pos * binding_kind) list;
  toplevel : bool;
}

type st = {
  model : Model.t;
  diags : Diagnostic.t list ref;
  s_refine : S.t;
  (* Use-tables of every enclosing function, innermost first: reads in
     nested closures count as uses of enclosing bindings. *)
  mutable sinks : (string, unit) Hashtbl.t list;
  (* Names declared anywhere in enclosing scopes: suppresses the
     assign-builtin warning when the global is deliberately shadowed. *)
  mutable lexical : S.t;
  mutable in_for_init : bool;
  silent : bool;
}

let emit st d = if not st.silent then st.diags := d :: !(st.diags)

let hoisted_names stmts =
  List.fold_left
    (fun acc (s : Ast.stmt) ->
      match s.Ast.sdesc with Ast.Sfunc (n, _, _) -> S.add n acc | _ -> acc)
    S.empty stmts

(* [var] and for-in names of one function body, nested functions
   excluded. *)
let collect_local_vars body =
  let acc = ref S.empty in
  Model.iter_stmts ~enter_funcs:false
    (fun (s : Ast.stmt) ->
      match s.Ast.sdesc with
      | Ast.Svar bs -> List.iter (fun (n, _) -> acc := S.add n !acc) bs
      | Ast.Sfor_in (n, _, _) -> acc := S.add n !acc
      | _ -> ())
    (fun _ -> ())
    body;
  !acc

let stmt_contains_call s =
  let found = ref false in
  Model.iter_stmt ~enter_funcs:false
    (fun _ -> ())
    (fun (e : Ast.expr) ->
      match e.Ast.desc with Ast.Call _ | Ast.New _ -> found := true | _ -> ())
    s;
  !found

(* Declarations reached only through a branch, loop or protected block:
   direct children of the list (and of bare blocks, which always run)
   are straight-line; everything nested deeper is conditional. A [for]'s
   init clause runs unconditionally once the [for] is reached, so it
   stays straight-line; the loop body does not. *)
let conditional_vars stmts =
  let acc = ref S.empty in
  let collect body =
    Model.iter_stmts ~enter_funcs:false
      (fun (s : Ast.stmt) ->
        match s.Ast.sdesc with
        | Ast.Svar bs -> List.iter (fun (n, _) -> acc := S.add n !acc) bs
        | Ast.Sfor_in (n, _, _) -> acc := S.add n !acc
        | _ -> ())
      (fun _ -> ())
      body
  in
  let rec direct stmts =
    List.iter
      (fun (s : Ast.stmt) ->
        match s.Ast.sdesc with
        | Ast.Sblock b -> direct b
        | Ast.Sif (_, t, e) ->
          collect t;
          collect e
        | Ast.Swhile (_, b) | Ast.Sdo_while (b, _) -> collect b
        | Ast.Sfor (_, _, _, b) | Ast.Sfor_in (_, _, b) -> collect b
        | Ast.Stry (b, _, h) ->
          (* A throw can cut the protected body short. *)
          collect b;
          collect h
        | _ -> ())
      stmts
  in
  direct stmts;
  !acc

let fresh_fctx ~local_vars ?(conditional_vars = S.empty) ~toplevel () =
  {
    local_vars;
    conditional_vars;
    declared = S.empty;
    uses = Hashtbl.create 8;
    bindings = [];
    toplevel;
  }

let record_use st name =
  List.iter (fun tbl -> Hashtbl.replace tbl name ()) st.sinks

let classify_ident st fctx must name pos =
  record_use st name;
  if S.mem name must then begin
    if
      (not fctx.toplevel)
      && S.mem name fctx.local_vars
      && not (S.mem name fctx.declared)
    then
      emit st
        (Diagnostic.warning "use-before-decl" pos
           "'%s' is read before its 'var' declaration executes; the read resolves to an outer or global binding"
           name)
  end
  else if Globals.is_global name then ()
  else if
    fctx.toplevel
    && S.mem name fctx.local_vars
    && not (S.mem name fctx.conditional_vars)
  then
    (* Every declaration of the name is a straight-line toplevel
       statement, so "not in the must-set" is exact: the read is
       sequenced before the [var] and definitely raises if reached. *)
    emit st
      (Diagnostic.error "undefined-var" pos
         "'%s' is read before its 'var' declaration executes" name)
  else if Hashtbl.mem st.model.Model.assigned_names name then
    emit st
      (Diagnostic.warning "use-before-assign" pos
         "'%s' may be read before it is first assigned" name)
  else if Hashtbl.mem st.model.Model.declared_vars name then
    emit st
      (Diagnostic.warning "use-before-decl" pos
         "'%s' may be read before its 'var' declaration executes" name)
  else emit st (Diagnostic.error "undefined-var" pos "'%s' is not defined" name)

let declare_binding st fctx name pos kind =
  (match kind with
   | Var | Param | Func_decl ->
     if
       (not st.in_for_init)
       && List.exists
            (fun (n, _, k) -> n = name && k <> Catch && k <> Loop)
            fctx.bindings
     then
       emit st
         (Diagnostic.warning "duplicate-decl" pos "'%s' is declared more than once"
            name)
   | Catch | Loop -> ());
  if Globals.is_global name then
    emit st
      (Diagnostic.warning "shadow-builtin" pos
         "declaration of '%s' shadows a built-in or vocabulary global" name);
  fctx.bindings <- (name, pos, kind) :: fctx.bindings;
  fctx.declared <- S.add name fctx.declared

let assign_ident st name pos must =
  if Globals.is_global name && not (S.mem name st.lexical) then
    emit st
      (Diagnostic.warning "assign-builtin" pos
         "assignment overwrites the built-in or vocabulary global '%s'" name);
  S.add name must

(* --- the walk ------------------------------------------------------- *)

let rec check_expr st fctx must (e : Ast.expr) : S.t =
  let pos = e.Ast.pos in
  match e.Ast.desc with
  | Ast.Number _ | Ast.String _ | Ast.Bool _ | Ast.Null | Ast.Undefined
  | Ast.This ->
    must
  | Ast.Ident name ->
    classify_ident st fctx must name pos;
    must
  | Ast.Array_lit els -> List.fold_left (check_expr st fctx) must els
  | Ast.Object_lit fields ->
    List.fold_left (fun m (_, v) -> check_expr st fctx m v) must fields
  | Ast.Func (params, body) ->
    check_function st ~creation_must:must ~params ~body ~pos;
    must
  | Ast.Member (obj, _) -> check_expr st fctx must obj
  | Ast.Index (obj, idx) ->
    let m = check_expr st fctx must obj in
    check_expr st fctx m idx
  | Ast.Call (callee, args) | Ast.New (callee, args) ->
    let m = check_expr st fctx must callee in
    List.fold_left (check_expr st fctx) m args
  | Ast.Assign (lv, _, rhs) -> (
    (* RHS first, then the compound read / index subexpressions, then
       the write — the interpreter's order. *)
    let m = check_expr st fctx must rhs in
    match lv with
    | Ast.Lident name -> assign_ident st name pos m
    | Ast.Lmember (obj, _) -> check_expr st fctx m obj
    | Ast.Lindex (obj, idx) ->
      let m = check_expr st fctx m obj in
      check_expr st fctx m idx)
  | Ast.Unop (_, x) -> check_expr st fctx must x
  | Ast.Binop (_, a, b) ->
    let m = check_expr st fctx must a in
    check_expr st fctx m b
  | Ast.Logical (_, a, b) ->
    let m = check_expr st fctx must a in
    (* The right operand may be skipped: check it, drop its additions. *)
    ignore (check_expr st fctx m b);
    m
  | Ast.Cond (c, t, e') ->
    let mc = check_expr st fctx must c in
    let mt = check_expr st fctx mc t in
    let me = check_expr st fctx mc e' in
    S.inter mt me
  | Ast.Incr (_, lv) | Ast.Decr (_, lv) -> (
    match lv with
    | Ast.Lident name -> assign_ident st name pos must
    | Ast.Lmember (obj, _) -> check_expr st fctx must obj
    | Ast.Lindex (obj, idx) ->
      let m = check_expr st fctx must obj in
      check_expr st fctx m idx)
  | Ast.Delete (obj, _) -> check_expr st fctx must obj

and check_stmt st fctx must (s : Ast.stmt) : S.t =
  let pos = s.Ast.spos in
  match s.Ast.sdesc with
  | Ast.Sexpr e -> check_expr st fctx must e
  | Ast.Svar bindings ->
    List.fold_left
      (fun must (name, init) ->
        let must =
          match init with Some e -> check_expr st fctx must e | None -> must
        in
        declare_binding st fctx name pos Var;
        S.add name must)
      must bindings
  | Ast.Sif (c, t, e) ->
    let mc = check_expr st fctx must c in
    let mt = check_stmts st fctx mc t in
    let me = check_stmts st fctx mc e in
    S.union mc (S.inter mt me)
  | Ast.Swhile (c, body) ->
    let mc = check_expr st fctx must c in
    ignore (check_stmts st fctx mc body);
    mc
  | Ast.Sdo_while (body, c) ->
    (* [break] can skip the condition, so only the entry set survives. *)
    let mb = check_stmts st fctx must body in
    ignore (check_expr st fctx mb c);
    must
  | Ast.Sfor (init, cond, step, body) ->
    let m1 =
      match init with
      | Some i ->
        st.in_for_init <- true;
        let m = check_stmt st fctx must i in
        st.in_for_init <- false;
        m
      | None -> must
    in
    let m2 = match cond with Some c -> check_expr st fctx m1 c | None -> m1 in
    ignore (check_stmts st fctx m2 body);
    (match step with Some e -> ignore (check_expr st fctx m2 e) | None -> ());
    m2
  | Ast.Sfor_in (name, subject, body) ->
    let ms = check_expr st fctx must subject in
    (* The loop variable is declared unconditionally, before the subject
       is even checked for enumerability. *)
    declare_binding st fctx name pos Loop;
    let m0 = S.add name ms in
    ignore (check_stmts st fctx m0 body);
    m0
  | Ast.Sreturn v ->
    (match v with Some e -> ignore (check_expr st fctx must e) | None -> ());
    must
  | Ast.Sbreak | Ast.Scontinue -> must
  | Ast.Sfunc _ ->
    (* Declared at list entry and analyzed by [check_stmts]. *)
    must
  | Ast.Sblock body ->
    (* No new scope: [var]s inside persist in the enclosing frame. *)
    check_stmts st fctx must body
  | Ast.Sthrow e ->
    ignore (check_expr st fctx must e);
    must
  | Ast.Stry (body, name, handler) ->
    ignore (check_stmts st fctx must body);
    declare_binding st fctx name pos Catch;
    ignore (check_stmts st fctx (S.add name must) handler);
    must

and check_stmts st fctx must (stmts : Ast.stmt list) : S.t =
  let entry = S.union must (hoisted_names stmts) in
  List.iter
    (fun (s : Ast.stmt) ->
      match s.Ast.sdesc with
      | Ast.Sfunc (name, params, body) ->
        declare_binding st fctx name s.Ast.spos Func_decl;
        (* The closure exists from list entry on, so a call may reach the
           body before any later statement of this list runs: only the
           entry set is guaranteed. *)
        check_function st ~creation_must:entry ~params ~body ~pos:s.Ast.spos
      | _ -> ())
    stmts;
  List.fold_left (check_stmt st fctx) entry stmts

and check_function st ~creation_must ~params ~body ~pos =
  if st.silent then ()
  else begin
    let local_vars = collect_local_vars body in
    let fctx = fresh_fctx ~local_vars ~toplevel:false () in
    let saved_sinks = st.sinks and saved_lexical = st.lexical in
    st.sinks <- fctx.uses :: st.sinks;
    st.lexical <-
      S.union st.lexical (S.union local_vars (S.of_list params));
    List.iter (fun p -> declare_binding st fctx p pos Param) params;
    let entry =
      List.fold_left
        (fun m p -> S.add p m)
        (S.union creation_must st.s_refine)
        params
    in
    ignore (check_stmts st fctx entry body);
    st.sinks <- saved_sinks;
    st.lexical <- saved_lexical;
    (* Unused locals/params: reads recorded into this function's use
       table (including reads from nested closures) clear the flag. *)
    let seen = Hashtbl.create 8 in
    List.iter
      (fun (name, bpos, kind) ->
        match kind with
        | (Param | Var) when not (Hashtbl.mem seen name) ->
          Hashtbl.replace seen name ();
          if not (Hashtbl.mem fctx.uses name) then
            emit st
              (Diagnostic.warning "unused-binding" bpos "%s '%s' is never read"
                 (if kind = Param then "parameter" else "variable")
                 name)
        | _ -> ())
      (List.rev fctx.bindings)
  end

(* The first-call refinement: the must-additions of the toplevel prefix
   up to (excluding) the first statement that contains a call — no
   function body can execute earlier, so every function entry also
   inherits these. *)
let compute_refinement model (program : Ast.program) =
  let st =
    {
      model;
      diags = ref [];
      s_refine = S.empty;
      sinks = [];
      lexical = S.empty;
      in_for_init = false;
      silent = true;
    }
  in
  let fctx = fresh_fctx ~local_vars:S.empty ~toplevel:true () in
  let rec go must = function
    | [] -> must
    | s :: _ when stmt_contains_call s -> must
    | s :: rest -> go (check_stmt st fctx must s) rest
  in
  go (hoisted_names program) program

let check (model : Model.t) : Diagnostic.t list =
  let program = model.Model.program in
  let s_refine = compute_refinement model program in
  let top_vars = collect_local_vars program in
  let fctx = fresh_fctx ~local_vars:top_vars ~conditional_vars:(conditional_vars program) ~toplevel:true () in
  let st =
    {
      model;
      diags = ref [];
      s_refine;
      sinks = [ fctx.uses ];
      lexical = S.union top_vars (hoisted_names program);
      in_for_init = false;
      silent = false;
    }
  in
  ignore (check_stmts st fctx S.empty program);
  List.rev !(st.diags)
