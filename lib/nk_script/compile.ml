(* Closure compilation of NKScript: the one engine that runs scripts.

   A tree-walking evaluator re-dispatches on AST constructors and
   resolves every variable with a Hashtbl probe down a scope-chain list
   on every execution — the hottest path in the proxy, paid per handler
   per stage per request. This pass lowers each AST node exactly once
   into an OCaml closure and resolves variables to lexical slot
   addresses (frame arrays indexed at compile time), so handler
   invocation runs pre-compiled code. The runtime those closures call
   (member and index access, method dispatch, calls, charges) is
   [Interp].

   Two invariants shape everything below:

   1. Observable equivalence with the reference tree-walker kept in
      [test/reference_interp.ml], including *bit-identical
      fuel and heap accounting*: the resource monitor's congestion
      numbers, termination points, and every seed bench figure depend
      on the charges, so each compiled closure performs the same
      [charge_fuel]/[charge_alloc] calls, in the same order, as the
      tree-walker visiting the same nodes. Constant folding keeps this
      by recording the charge trace the tree-walker would have emitted
      and replaying it (unit fuel steps, so even exhaustion mid-fold
      raises at the identical counter value).

   2. Compiled programs are context-independent: the same [program] can
      execute in any number of scripting contexts, which is what lets
      the SHA-256-keyed cache share one compilation across every stage
      and node that loads the same script body. Context state (fuel,
      heap, globals) only enters at run time through [rt].

   Variable semantics note: NKScript scoping is function-level and
   *temporal* — [var x] shadows an outer [x] only from the moment the
   declaration executes (the tree-walker's Hashtbl entry appears then).
   Slots therefore start as a sentinel; a reference probes its static
   candidate slots innermost-first and falls through to the enclosing
   bindings — in practice a single array load and one physical-equality
   check — with true globals resolved in the defining context's table. *)

open Value
module I = Interp

(* --- runtime environment -------------------------------------------- *)

type rt = {
  ctx : Value.ctx; (* the *calling* context: fuel/heap are charged here *)
  globals : Value.scope; (* lexical globals: the defining context's table *)
  frames : Value.t array list; (* innermost first *)
  this : Value.t;
}

type cexpr = rt -> Value.t

type cstmt = rt -> unit

(* Marks a slot whose declaration has not executed yet; compared with
   physical equality and never visible to scripts. Lives in [Value] so
   the per-context frame arena can wipe recycled frames with it. *)
let undeclared = Value.undeclared

let rec frame_at frames d =
  match frames with
  | f :: rest -> if d = 0 then f else frame_at rest (d - 1)
  | [] -> assert false

(* --- inlined charge helpers ------------------------------------------ *)

(* Identical to [Interp.charge_fuel]/[charge_alloc] — same checks, same
   order, same exception payloads — but local to this unit and small
   enough for the non-flambda inliner, so the per-node charge in every
   compiled closure is straight-line code instead of a cross-module
   call. The qcheck differential holds these to the tree-walker's
   accounting bit for bit. *)
let[@inline always] charge1 (ctx : Value.ctx) =
  if ctx.killed then raise Value.Terminated;
  let f = ctx.fuel_used + 1 in
  ctx.fuel_used <- f;
  if f > ctx.max_fuel then raise (Value.Resource_exhausted "fuel limit exceeded")

(* The 4-unit function-invocation charge ([Interp.apply]). *)
let[@inline always] charge4 (ctx : Value.ctx) =
  if ctx.killed then raise Value.Terminated;
  let f = ctx.fuel_used + 4 in
  ctx.fuel_used <- f;
  if f > ctx.max_fuel then raise (Value.Resource_exhausted "fuel limit exceeded")

let[@inline always] charge_allocv (ctx : Value.ctx) v =
  ctx.heap_used <- ctx.heap_used + alloc_size v;
  if ctx.heap_used > ctx.max_heap then raise (Value.Resource_exhausted "heap limit exceeded")

(* --- inline caches ---------------------------------------------------- *)

(* One mutable cache per compiled member/method site. A hit is a single
   physical shape comparison plus an array load, so monomorphic sites —
   the overwhelmingly common case — never hash a property name after
   first touch. The sentinel shape is carried by no object, so a fresh
   cache cannot spuriously hit; dictionary-mode objects are never
   cached (they share [dict_shape] but not a layout). Misses that find
   no slot don't populate the cache either: caching "absent" would need
   shape-keyed negative entries for no measured win. *)
type ic = { mutable ic_shape : Value.shape; mutable ic_slot : int }

let new_ic () = { ic_shape = ic_sentinel_shape; ic_slot = 0 }

let[@inline] obj_load_ic ic o atom =
  if o.shape == ic.ic_shape then Array.unsafe_get o.slots ic.ic_slot
  else
    match o.dict with
    | None ->
      let s = shape_find o.shape atom in
      if s >= 0 then begin
        ic.ic_shape <- o.shape;
        ic.ic_slot <- s;
        Array.unsafe_get o.slots s
      end
      else Vundefined
    | Some d -> ( match Hashtbl.find_opt d atom with Some v -> v | None -> Vundefined)

(* [Interp.member_get] with an IC on the object path and the primitive
   "length" reads answered without leaving the unit. *)
let member_get_ic rt ic atom name v =
  match v with
  | Vobj o -> obj_load_ic ic o atom
  | Vstr s ->
    if atom = Atom.length then Vnum (float_of_int (String.length s))
    else I.member_get rt.ctx v name
  | Varr a ->
    if atom = Atom.length then Vnum (float_of_int a.len) else I.member_get rt.ctx v name
  | Vbytes b ->
    if atom = Atom.length then Vnum (float_of_int b.blen) else I.member_get rt.ctx v name
  | _ -> I.member_get rt.ctx v name

(* [Interp.member_set] with an IC: a hit stores straight into the slot;
   a miss goes through the generic (possibly shape-transitioning) write
   and then caches the resulting layout. *)
let member_set_ic ic atom name obj v =
  match obj with
  | Vobj o ->
    if o.shape == ic.ic_shape then Array.unsafe_set o.slots ic.ic_slot v
    else begin
      obj_set_atom o atom v;
      match o.dict with
      | None ->
        ic.ic_shape <- o.shape;
        ic.ic_slot <- shape_find o.shape atom
      | Some _ -> ()
    end
  | v0 -> error "cannot set property '%s' on a %s" name (type_name v0)

(* Method-call site: IC lookup plus direct dispatch on the function
   representation (the common Compiled_fn/Native_fn cases stay in this
   unit); error messages and the 4-unit apply charge are exactly
   [Interp.invoke_method]/[Interp.apply]. *)
let invoke_ic rt ic atom name obj args =
  match obj with
  | Vobj o -> (
    match obj_load_ic ic o atom with
    | Vfun (Compiled_fn cf) ->
      charge4 rt.ctx;
      cf.code.ccall rt.ctx ~this:obj ~globals:cf.cglobals cf.captured args
    | Vfun (Native_fn nf) ->
      charge4 rt.ctx;
      nf.call (Some obj) args
    | Vundefined -> error "object has no method '%s'" name
    | v -> error "property '%s' is not a function (%s)" name (type_name v))
  | _ -> I.invoke_method rt.ctx obj name args

(* Plain-call dispatch, same fast cases. *)
let apply_fast rt f args =
  match f with
  | Vfun (Compiled_fn cf) ->
    charge4 rt.ctx;
    cf.code.ccall rt.ctx ~this:Vundefined ~globals:cf.cglobals cf.captured args
  | Vfun (Native_fn nf) ->
    charge4 rt.ctx;
    nf.call None args
  | f -> I.apply rt.ctx f args

(* --- compile-time binop specialization -------------------------------- *)

(* Comparison and boolean results are shared immutable blocks: nothing
   in the language observes [Vbool] identity, and loop conditions
   produce one per iteration. *)
let vtrue = Vbool true

let vfalse = Vbool false

let[@inline always] vbool b = if b then vtrue else vfalse

(* Local truthiness with a first-class [Vbool] case: loop and branch
   conditions are almost always the shared booleans from [vbool]. *)
let[@inline always] truthy_v = function Vbool b -> b | v -> truthy v

(* Dispatch on the operator once, at compile time, with direct numeric
   and string fast paths; coercions and charges match the reference
   tree-walker's [eval_binop] exactly ([to_number] on a [Vnum] is the
   identity, [<] on non-NaN floats agrees with the [compare]-then-test
   formulation, and IEEE comparisons on NaN are false exactly where the
   tree-walker's NaN pre-check says false). *)
let specialize_binop (op : Ast.binop) : Value.ctx -> Value.t -> Value.t -> Value.t =
  match op with
  | Ast.Add -> (
    fun ctx a b ->
      match (a, b) with
      | Vnum x, Vnum y -> Vnum (x +. y)
      | Vstr x, Vstr y ->
        (* Charged before the string is built, like every string
           builder. An empty side returns the other operand itself: the
           charge is the same, only the copy is saved. *)
        let h = ctx.heap_used + String.length x + String.length y + 16 in
        ctx.heap_used <- h;
        if h > ctx.max_heap then raise (Value.Resource_exhausted "heap limit exceeded");
        if String.length x = 0 then b else if String.length y = 0 then a else Vstr (x ^ y)
      | Vstr _, _ | _, Vstr _ -> Vstr (I.concat_text ctx a b)
      | _ -> Vnum (to_number a +. to_number b))
  | Ast.Sub -> (
    fun _ a b ->
      match (a, b) with
      | Vnum x, Vnum y -> Vnum (x -. y)
      | _ -> Vnum (to_number a -. to_number b))
  | Ast.Mul -> (
    fun _ a b ->
      match (a, b) with
      | Vnum x, Vnum y -> Vnum (x *. y)
      | _ -> Vnum (to_number a *. to_number b))
  | Ast.Div -> (
    fun _ a b ->
      match (a, b) with
      | Vnum x, Vnum y -> Vnum (x /. y)
      | _ -> Vnum (to_number a /. to_number b))
  | Ast.Mod -> fun _ a b -> Vnum (Float.rem (to_number a) (to_number b))
  | Ast.Eq -> fun _ a b -> vbool (equal a b)
  | Ast.Neq -> fun _ a b -> vbool (not (equal a b))
  | Ast.Lt -> (
    fun _ a b ->
      match (a, b) with
      | Vnum x, Vnum y -> vbool (x < y)
      | Vstr x, Vstr y -> vbool (String.compare x y < 0)
      | _ -> vbool (to_number a < to_number b))
  | Ast.Le -> (
    fun _ a b ->
      match (a, b) with
      | Vnum x, Vnum y -> vbool (x <= y)
      | Vstr x, Vstr y -> vbool (String.compare x y <= 0)
      | _ -> vbool (to_number a <= to_number b))
  | Ast.Gt -> (
    fun _ a b ->
      match (a, b) with
      | Vnum x, Vnum y -> vbool (x > y)
      | Vstr x, Vstr y -> vbool (String.compare x y > 0)
      | _ -> vbool (to_number a > to_number b))
  | Ast.Ge -> (
    fun _ a b ->
      match (a, b) with
      | Vnum x, Vnum y -> vbool (x >= y)
      | Vstr x, Vstr y -> vbool (String.compare x y >= 0)
      | _ -> vbool (to_number a >= to_number b))
  | Ast.Band -> fun _ a b -> Vnum (float_of_int (to_int a land to_int b))
  | Ast.Bor -> fun _ a b -> Vnum (float_of_int (to_int a lor to_int b))
  | Ast.Bxor -> fun _ a b -> Vnum (float_of_int (to_int a lxor to_int b))
  | Ast.Shl -> fun _ a b -> Vnum (float_of_int (to_int a lsl (to_int b land 31)))
  | Ast.Shr -> fun _ a b -> Vnum (float_of_int (to_int a asr (to_int b land 31)))

(* --- frame escape analysis -------------------------------------------- *)

(* A call frame can be recycled iff nothing can capture it. Closures
   are the only capture vector — [Func]/[Sfunc] close over [rt.frames],
   which includes every enclosing frame — so any function node
   *syntactically* inside the body pins the frame. The scan stops at
   [Func] boundaries: a deeper literal is already inside one. *)
let rec expr_has_func (e : Ast.expr) =
  match e.Ast.desc with
  | Ast.Func _ -> true
  | Ast.Undefined | Ast.Null | Ast.Bool _ | Ast.Number _ | Ast.String _ | Ast.This
  | Ast.Ident _ ->
    false
  | Ast.Array_lit es -> List.exists expr_has_func es
  | Ast.Object_lit fs -> List.exists (fun (_, fe) -> expr_has_func fe) fs
  | Ast.Member (o, _) | Ast.Delete (o, _) -> expr_has_func o
  | Ast.Index (a, b) -> expr_has_func a || expr_has_func b
  | Ast.Call (f, args) | Ast.New (f, args) ->
    expr_has_func f || List.exists expr_has_func args
  | Ast.Assign (lv, _, e) -> lvalue_has_func lv || expr_has_func e
  | Ast.Unop (_, a) -> expr_has_func a
  | Ast.Binop (_, a, b) | Ast.Logical (_, a, b) -> expr_has_func a || expr_has_func b
  | Ast.Cond (a, b, c) -> expr_has_func a || expr_has_func b || expr_has_func c
  | Ast.Incr (_, lv) | Ast.Decr (_, lv) -> lvalue_has_func lv

and lvalue_has_func = function
  | Ast.Lident _ -> false
  | Ast.Lmember (o, _) -> expr_has_func o
  | Ast.Lindex (a, b) -> expr_has_func a || expr_has_func b

and stmt_has_func (s : Ast.stmt) =
  match s.Ast.sdesc with
  | Ast.Sfunc _ -> true
  | Ast.Sexpr e | Ast.Sthrow e -> expr_has_func e
  | Ast.Svar bs -> List.exists (fun (_, init) -> Option.fold ~none:false ~some:expr_has_func init) bs
  | Ast.Sif (c, a, b) ->
    expr_has_func c || List.exists stmt_has_func a || List.exists stmt_has_func b
  | Ast.Swhile (c, b) | Ast.Sdo_while (b, c) -> expr_has_func c || List.exists stmt_has_func b
  | Ast.Sfor (i, c, st, b) ->
    Option.fold ~none:false ~some:stmt_has_func i
    || Option.fold ~none:false ~some:expr_has_func c
    || Option.fold ~none:false ~some:expr_has_func st
    || List.exists stmt_has_func b
  | Ast.Sfor_in (_, e, b) -> expr_has_func e || List.exists stmt_has_func b
  | Ast.Sreturn e -> Option.fold ~none:false ~some:expr_has_func e
  | Ast.Sbreak | Ast.Scontinue -> false
  | Ast.Sblock b -> List.exists stmt_has_func b
  | Ast.Stry (b, _, h) -> List.exists stmt_has_func b || List.exists stmt_has_func h

(* break/continue elision: a loop needs its Break_exc (resp. the body
   its Continue_exc) handler only if the statement appears
   *syntactically* in the body — expressions cannot contain statements
   (function literals are a boundary where both become errors), and a
   nested loop catches its own. Skipping the handler removes an
   exception-trap push per iteration. *)
let rec stmt_has_break (s : Ast.stmt) =
  match s.Ast.sdesc with
  | Ast.Sbreak -> true
  | Ast.Sif (_, a, b) -> List.exists stmt_has_break a || List.exists stmt_has_break b
  | Ast.Sblock b -> List.exists stmt_has_break b
  | Ast.Stry (b, _, h) -> List.exists stmt_has_break b || List.exists stmt_has_break h
  | Ast.Swhile _ | Ast.Sdo_while _ | Ast.Sfor _ | Ast.Sfor_in _ (* binds inner *)
  | Ast.Sexpr _ | Ast.Svar _ | Ast.Sreturn _ | Ast.Scontinue | Ast.Sfunc _ | Ast.Sthrow _ ->
    false

let rec stmt_has_continue (s : Ast.stmt) =
  match s.Ast.sdesc with
  | Ast.Scontinue -> true
  | Ast.Sif (_, a, b) -> List.exists stmt_has_continue a || List.exists stmt_has_continue b
  | Ast.Sblock b -> List.exists stmt_has_continue b
  | Ast.Stry (b, _, h) -> List.exists stmt_has_continue b || List.exists stmt_has_continue h
  | Ast.Swhile _ | Ast.Sdo_while _ | Ast.Sfor _ | Ast.Sfor_in _
  | Ast.Sexpr _ | Ast.Svar _ | Ast.Sreturn _ | Ast.Sbreak | Ast.Sfunc _ | Ast.Sthrow _ ->
    false

(* Wrap a compiled loop body with its Continue handler only if needed. *)
let guard_continue body (cb : cstmt) : cstmt =
  if List.exists stmt_has_continue body then
    fun rt -> ( try cb rt with I.Continue_exc -> ())
  else cb

(* Wrap a whole compiled loop with its Break handler only if needed. *)
let guard_break body (loop : cstmt) : cstmt =
  if List.exists stmt_has_break body then
    fun rt -> ( try loop rt with I.Break_exc -> ())
  else loop

(* --- compile-time scope table ---------------------------------------- *)

type scope_info = { slots : (string, int) Hashtbl.t; mutable nslots : int }

type cenv = scope_info list
(* Innermost first; [] at toplevel, where every name is a global. *)

let slot_of si name =
  match Hashtbl.find_opt si.slots name with
  | Some s -> s
  | None ->
    let s = si.nslots in
    si.nslots <- s + 1;
    Hashtbl.add si.slots name s;
    s

(* Function-level declarations: params, [var]s, hoisted functions,
   for-in and catch variables — everywhere in the body except inside
   nested function literals (those get their own frame). *)
let rec collect_stmt si (s : Ast.stmt) =
  match s.Ast.sdesc with
  | Ast.Svar bindings -> List.iter (fun (n, _) -> ignore (slot_of si n)) bindings
  | Ast.Sfunc (name, _, _) -> ignore (slot_of si name)
  | Ast.Sif (_, a, b) ->
    List.iter (collect_stmt si) a;
    List.iter (collect_stmt si) b
  | Ast.Swhile (_, b) | Ast.Sdo_while (b, _) -> List.iter (collect_stmt si) b
  | Ast.Sfor (init, _, _, b) ->
    Option.iter (collect_stmt si) init;
    List.iter (collect_stmt si) b
  | Ast.Sfor_in (n, _, b) ->
    ignore (slot_of si n);
    List.iter (collect_stmt si) b
  | Ast.Stry (b, n, h) ->
    List.iter (collect_stmt si) b;
    ignore (slot_of si n);
    List.iter (collect_stmt si) h
  | Ast.Sblock b -> List.iter (collect_stmt si) b
  | Ast.Sexpr _ | Ast.Sreturn _ | Ast.Sbreak | Ast.Scontinue | Ast.Sthrow _ -> ()

(* Static candidates for a reference: every enclosing function scope
   that declares [name], innermost first, as (depth, slot). *)
let resolve (cenv : cenv) name =
  let rec go depth = function
    | [] -> []
    | si :: rest -> (
      match Hashtbl.find_opt si.slots name with
      | Some s -> (depth, s) :: go (depth + 1) rest
      | None -> go (depth + 1) rest)
  in
  go 0 cenv

let global_ref rt name = Hashtbl.find_opt rt.globals name

let compile_var_read cenv name ~(on_missing : rt -> Value.t) : rt -> Value.t =
  match resolve cenv name with
  | [] -> fun rt -> ( match global_ref rt name with Some r -> !r | None -> on_missing rt)
  | [ (0, s) ] -> (
    (* The common case — a local of the current function — compiles to
       one (bounds-checked-at-compile-time) array load. *)
    fun rt ->
      match rt.frames with
      | f :: _ ->
        let v = Array.unsafe_get f s in
        if v != undeclared then v
        else ( match global_ref rt name with Some r -> !r | None -> on_missing rt)
      | [] -> assert false)
  | cands ->
    let cands = Array.of_list cands in
    let n = Array.length cands in
    fun rt ->
      let rec go i =
        if i >= n then
          match global_ref rt name with Some r -> !r | None -> on_missing rt
        else begin
          let d, s = cands.(i) in
          let v = (frame_at rt.frames d).(s) in
          if v != undeclared then v else go (i + 1)
        end
      in
      go 0

(* Assignment: first live binding wins; otherwise an existing global's
   ref is mutated in place; otherwise the name springs into existence
   in the *calling* context's globals — exactly the tree-walker's
   [write_lvalue] (which looks up through the closure but creates new
   globals in [ctx.globals]). *)
let write_global rt name v =
  match global_ref rt name with
  | Some r -> r := v
  | None -> Hashtbl.replace rt.ctx.globals name (ref v)

let compile_var_write cenv name : rt -> Value.t -> unit =
  match resolve cenv name with
  | [] -> fun rt v -> write_global rt name v
  | [ (0, s) ] -> (
    (* Common case: a local of the current function — one array store
       (the inner [let rec] of the generic path would allocate a
       closure per write). *)
    fun rt v ->
      match rt.frames with
      | f :: _ ->
        if Array.unsafe_get f s != undeclared then Array.unsafe_set f s v
        else write_global rt name v
      | [] -> assert false)
  | cands ->
    let cands = Array.of_list cands in
    let n = Array.length cands in
    fun rt v ->
      let rec go i =
        if i >= n then write_global rt name v
        else begin
          let d, s = cands.(i) in
          let f = frame_at rt.frames d in
          if f.(s) != undeclared then f.(s) <- v else go (i + 1)
        end
      in
      go 0

(* The for-in loop variable rebind: like a write, but a miss everywhere
   is silently dropped (mirrors [Sfor_in]'s [bind]). *)
let compile_var_bind cenv name : rt -> Value.t -> unit =
  match resolve cenv name with
  | [ (0, s) ] -> (
    fun rt v ->
      match rt.frames with
      | f :: _ ->
        if Array.unsafe_get f s != undeclared then Array.unsafe_set f s v
        else ( match global_ref rt name with Some r -> r := v | None -> ())
      | [] -> assert false)
  | cands ->
    let cands = Array.of_list cands in
    let n = Array.length cands in
    fun rt v ->
      let rec go i =
        if i >= n then ( match global_ref rt name with Some r -> r := v | None -> ())
        else begin
          let d, s = cands.(i) in
          let f = frame_at rt.frames d in
          if f.(s) != undeclared then f.(s) <- v else go (i + 1)
        end
      in
      go 0

(* Declarations always target the innermost scope. *)
type decl = Dslot of int | Dglobal of string

let compile_decl (cenv : cenv) name =
  match cenv with si :: _ -> Dslot (slot_of si name) | [] -> Dglobal name

let run_decl decl rt v =
  match decl with
  | Dslot s -> (List.hd rt.frames).(s) <- v
  | Dglobal n -> Hashtbl.replace rt.globals n (ref v)

(* --- constant folding ------------------------------------------------ *)

(* A folded subtree must still charge what the tree-walker charges. The
   fold therefore records the exact trace — one [Cfuel] per node visit,
   one [Calloc] per allocating operation, in evaluation order — and the
   compiled closure replays it. Fuel replays as unit steps so a limit
   crossed mid-subtree raises at the identical [fuel_used]. *)
type charge = Cfuel | Calloc of Value.t

let pure_unop op v =
  match op with
  | Ast.Not -> Vbool (not (truthy v))
  | Ast.Neg -> Vnum (-.to_number v)
  | Ast.Bnot -> Vnum (float_of_int (lnot (to_int v)))
  | Ast.Typeof -> Vstr (type_name v)

let pure_compare a b test =
  match (a, b) with
  | Vstr x, Vstr y -> Vbool (test (String.compare x y))
  | _ ->
    let x = to_number a and y = to_number b in
    if Float.is_nan x || Float.is_nan y then Vbool false else Vbool (test (Float.compare x y))

(* Mirrors the reference [eval_binop] on primitive operands, reporting
   the allocation charge instead of performing it. *)
let pure_binop op a b : Value.t * charge list =
  match op with
  | Ast.Add -> (
    match (a, b) with
    | Vstr _, _ | _, Vstr _ ->
      let v = Vstr (to_string a ^ to_string b) in
      (v, [ Calloc v ])
    | _ -> (Vnum (to_number a +. to_number b), []))
  | Ast.Sub -> (Vnum (to_number a -. to_number b), [])
  | Ast.Mul -> (Vnum (to_number a *. to_number b), [])
  | Ast.Div -> (Vnum (to_number a /. to_number b), [])
  | Ast.Mod -> (Vnum (Float.rem (to_number a) (to_number b)), [])
  | Ast.Eq -> (Vbool (equal a b), [])
  | Ast.Neq -> (Vbool (not (equal a b)), [])
  | Ast.Lt -> (pure_compare a b (fun c -> c < 0), [])
  | Ast.Le -> (pure_compare a b (fun c -> c <= 0), [])
  | Ast.Gt -> (pure_compare a b (fun c -> c > 0), [])
  | Ast.Ge -> (pure_compare a b (fun c -> c >= 0), [])
  | Ast.Band -> (Vnum (float_of_int (to_int a land to_int b)), [])
  | Ast.Bor -> (Vnum (float_of_int (to_int a lor to_int b)), [])
  | Ast.Bxor -> (Vnum (float_of_int (to_int a lxor to_int b)), [])
  | Ast.Shl -> (Vnum (float_of_int (to_int a lsl (to_int b land 31))), [])
  | Ast.Shr -> (Vnum (float_of_int (to_int a asr (to_int b land 31))), [])

let rec fold (e : Ast.expr) : (Value.t * charge list) option =
  let lit v = Some (v, [ Cfuel ]) in
  match e.Ast.desc with
  | Ast.Undefined -> lit Vundefined
  | Ast.Null -> lit Vnull
  | Ast.Bool b -> lit (Vbool b)
  | Ast.Number n -> lit (Vnum n)
  | Ast.String s -> lit (Vstr s)
  | Ast.Unop (op, a) -> Option.map (fun (va, ca) -> (pure_unop op va, Cfuel :: ca)) (fold a)
  | Ast.Binop (op, a, b) -> (
    match (fold a, fold b) with
    | Some (va, ca), Some (vb, cb) ->
      let v, extra = pure_binop op va vb in
      Some (v, (Cfuel :: ca) @ cb @ extra)
    | _ -> None)
  | Ast.Logical (Ast.And, a, b) -> (
    match fold a with
    | Some (va, ca) when truthy va ->
      Option.map (fun (vb, cb) -> (vb, (Cfuel :: ca) @ cb)) (fold b)
    | Some (va, ca) -> Some (va, Cfuel :: ca)
    | None -> None)
  | Ast.Logical (Ast.Or, a, b) -> (
    match fold a with
    | Some (va, ca) when truthy va -> Some (va, Cfuel :: ca)
    | Some (_, ca) -> Option.map (fun (vb, cb) -> (vb, (Cfuel :: ca) @ cb)) (fold b)
    | None -> None)
  | Ast.Cond (c, t, f) -> (
    match fold c with
    | Some (vc, cc) ->
      Option.map
        (fun (vb, cb) -> (vb, (Cfuel :: cc) @ cb))
        (fold (if truthy vc then t else f))
    | None -> None)
  | _ -> None

let replay_charges ctx charges =
  List.iter
    (function Cfuel -> I.charge_fuel ctx 1 | Calloc v -> I.charge_alloc ctx v)
    charges

(* --- expression compilation ------------------------------------------ *)

type clval = { lread : rt -> Value.t; lwrite : rt -> Value.t -> unit }

let rec eval_list rt = function
  | [] -> []
  | ce :: tl ->
    let v = ce rt in
    v :: eval_list rt tl

let rec compile_expr cenv (e : Ast.expr) : cexpr =
  match fold e with
  | Some (v, [ Cfuel ]) ->
    fun rt ->
      charge1 rt.ctx;
      v
  | Some (v, charges) ->
    fun rt ->
      replay_charges rt.ctx charges;
      v
  | None -> compile_node cenv e

and compile_node cenv (e : Ast.expr) : cexpr =
  match e.Ast.desc with
  (* Literals are handled by [fold]; kept for exhaustiveness. *)
  | Ast.Undefined ->
    fun rt ->
      charge1 rt.ctx;
      Vundefined
  | Ast.Null ->
    fun rt ->
      charge1 rt.ctx;
      Vnull
  | Ast.Bool b ->
    let v = Vbool b in
    fun rt ->
      charge1 rt.ctx;
      v
  | Ast.Number n ->
    let v = Vnum n in
    fun rt ->
      charge1 rt.ctx;
      v
  | Ast.String s ->
    let v = Vstr s in
    fun rt ->
      charge1 rt.ctx;
      v
  | Ast.This ->
    fun rt ->
      charge1 rt.ctx;
      rt.this
  | Ast.Ident name -> (
    match resolve cenv name with
    | [ (0, s) ] -> (
      (* Fused charge + load for the common local-variable read. *)
      fun rt ->
        charge1 rt.ctx;
        match rt.frames with
        | f :: _ ->
          let v = Array.unsafe_get f s in
          if v != undeclared then v
          else (
            match global_ref rt name with
            | Some r -> !r
            | None -> error "'%s' is not defined" name)
        | [] -> assert false)
    | _ ->
      let read =
        compile_var_read cenv name ~on_missing:(fun _ -> error "'%s' is not defined" name)
      in
      fun rt ->
        charge1 rt.ctx;
        read rt)
  | Ast.Array_lit items ->
    let citems = List.map (compile_expr cenv) items in
    fun rt ->
      charge1 rt.ctx;
      let v = Varr (new_arr (eval_list rt citems)) in
      charge_allocv rt.ctx v;
      v
  | Ast.Object_lit fields ->
    (* The insertion order is static, so the whole shape chain is
       resolved at compile time: the closure allocates an exact-sized
       slot array and stores each field by index (duplicate keys fold
       to the same slot, last write wins, evaluation order unchanged).
       The tree-walker builds the same shapes dynamically — both end at
       the same shared shape node. *)
    let atoms = List.map (fun (k, fe) -> (Atom.intern k, compile_expr cenv fe)) fields in
    let final_shape, rev_slots =
      List.fold_left
        (fun (sh, acc) (atom, _) ->
          let s = shape_find sh atom in
          if s >= 0 then (sh, s :: acc)
          else
            let sh' = shape_transition sh atom in
            (sh', sh'.sslot :: acc))
        (root_shape, []) atoms
    in
    let field_slots = Array.of_list (List.rev rev_slots) in
    let cexprs = Array.of_list (List.map snd atoms) in
    let nfields = Array.length cexprs in
    fun rt ->
      charge1 rt.ctx;
      let o = new_obj_with_shape final_shape in
      let slots = o.slots in
      for i = 0 to nfields - 1 do
        Array.unsafe_set slots
          (Array.unsafe_get field_slots i)
          ((Array.unsafe_get cexprs i) rt)
      done;
      let v = Vobj o in
      charge_allocv rt.ctx v;
      v
  | Ast.Func (params, body) ->
    let code = compile_function cenv ~fname:"<anonymous>" params body in
    fun rt ->
      charge1 rt.ctx;
      let v = Vfun (Compiled_fn { code; captured = rt.frames; cglobals = rt.globals }) in
      charge_allocv rt.ctx v;
      v
  | Ast.Member (obj_e, name) ->
    let cobj = compile_expr cenv obj_e in
    let atom = Atom.intern name in
    let ic = new_ic () in
    fun rt ->
      charge1 rt.ctx;
      member_get_ic rt ic atom name (cobj rt)
  | Ast.Index (obj_e, idx_e) ->
    let cobj = compile_expr cenv obj_e and cidx = compile_expr cenv idx_e in
    fun rt ->
      charge1 rt.ctx;
      let obj = cobj rt in
      let idx = cidx rt in
      I.index_get rt.ctx obj idx
  | Ast.Call (f_e, arg_es) -> (
    let cargs = List.map (compile_expr cenv) arg_es in
    match f_e.Ast.desc with
    | Ast.Member (obj_e, name) ->
      (* Method call: the member node itself is not evaluated (and so,
         as in the tree-walker, charges no fuel of its own). *)
      let cobj = compile_expr cenv obj_e in
      let atom = Atom.intern name in
      let ic = new_ic () in
      fun rt ->
        charge1 rt.ctx;
        let obj = cobj rt in
        let args = eval_list rt cargs in
        invoke_ic rt ic atom name obj args
    | _ ->
      let cf = compile_expr cenv f_e in
      fun rt ->
        charge1 rt.ctx;
        let f = cf rt in
        let args = eval_list rt cargs in
        apply_fast rt f args)
  | Ast.New (ctor_e, arg_es) ->
    let cctor = compile_expr cenv ctor_e in
    let cargs = List.map (compile_expr cenv) arg_es in
    fun rt ->
      charge1 rt.ctx;
      let ctor = cctor rt in
      let args = eval_list rt cargs in
      I.construct rt.ctx ctor args
  | Ast.Assign (Ast.Lident name, op, rhs_e)
    when ( match resolve cenv name with [ (0, _) ] -> true | _ -> false) -> (
    (* Fused store to a local slot — the innermost loops of real
       handlers are accumulator updates like [s += c]. The undeclared
       fallback replays the generic read/write-through-globals path. *)
    let s = match resolve cenv name with [ (0, s) ] -> s | _ -> assert false in
    let crhs = compile_expr cenv rhs_e in
    match op with
    | None -> (
      fun rt ->
        charge1 rt.ctx;
        let v = crhs rt in
        (match rt.frames with
         | f :: _ ->
           if Array.unsafe_get f s != undeclared then Array.unsafe_set f s v
           else write_global rt name v
         | [] -> assert false);
        v)
    | Some binop -> (
      let bop = specialize_binop binop in
      fun rt ->
        charge1 rt.ctx;
        let rhs = crhs rt in
        match rt.frames with
        | f :: _ ->
          let cur = Array.unsafe_get f s in
          if cur != undeclared then begin
            let v = bop rt.ctx cur rhs in
            Array.unsafe_set f s v;
            v
          end
          else begin
            let old = match global_ref rt name with Some r -> !r | None -> Vundefined in
            let v = bop rt.ctx old rhs in
            write_global rt name v;
            v
          end
        | [] -> assert false))
  | Ast.Assign (lv, op, rhs_e) -> (
    let clv = compile_lvalue cenv lv in
    let crhs = compile_expr cenv rhs_e in
    match op with
    | None ->
      fun rt ->
        charge1 rt.ctx;
        let v = crhs rt in
        clv.lwrite rt v;
        v
    | Some binop ->
      let bop = specialize_binop binop in
      fun rt ->
        charge1 rt.ctx;
        let rhs = crhs rt in
        let old = clv.lread rt in
        let v = bop rt.ctx old rhs in
        clv.lwrite rt v;
        v)
  | Ast.Unop (op, a_e) -> (
    let ca = compile_expr cenv a_e in
    match op with
    | Ast.Not ->
      fun rt ->
        charge1 rt.ctx;
        vbool (not (truthy_v (ca rt)))
    | Ast.Neg ->
      fun rt ->
        charge1 rt.ctx;
        Vnum (-.to_number (ca rt))
    | Ast.Bnot ->
      fun rt ->
        charge1 rt.ctx;
        Vnum (float_of_int (lnot (to_int (ca rt))))
    | Ast.Typeof ->
      fun rt ->
        charge1 rt.ctx;
        Vstr (type_name (ca rt)))
  | Ast.Binop (op, a_e, b_e) -> (
    (* Loop conditions and accumulator updates are dominated by
       [local <op> literal] and [local <op> local]; fuse the operand
       loads into the binop closure. Fuel charges stay one-per-node in
       tree-walker order (binop, a, b) so the differential's fuel
       accounting is unchanged even when an operand read raises. *)
    let bop = specialize_binop op in
    let slot_of e =
      match e.Ast.desc with
      | Ast.Ident name -> (
        match resolve cenv name with [ (0, s) ] -> Some (name, s) | _ -> None)
      | _ -> None
    in
    let const_of e =
      match fold e with Some (v, [ Cfuel ]) -> Some v | _ -> None
    in
    let read_fallback rt name =
      match global_ref rt name with
      | Some r -> !r
      | None -> error "'%s' is not defined" name
    in
    match (slot_of a_e, const_of b_e, slot_of b_e) with
    | Some (aname, sa), Some vb, _ ->
      fun rt -> (
        charge1 rt.ctx;
        charge1 rt.ctx;
        match rt.frames with
        | f :: _ ->
          let a = Array.unsafe_get f sa in
          let a = if a != undeclared then a else read_fallback rt aname in
          charge1 rt.ctx;
          bop rt.ctx a vb
        | [] -> assert false)
    | Some (aname, sa), None, Some (bname, sb) ->
      fun rt -> (
        charge1 rt.ctx;
        charge1 rt.ctx;
        match rt.frames with
        | f :: _ ->
          let a = Array.unsafe_get f sa in
          let a = if a != undeclared then a else read_fallback rt aname in
          charge1 rt.ctx;
          let b = Array.unsafe_get f sb in
          let b = if b != undeclared then b else read_fallback rt bname in
          bop rt.ctx a b
        | [] -> assert false)
    | _ -> (
      let ca = compile_expr cenv a_e in
      match const_of b_e with
      | Some vb ->
        fun rt ->
          charge1 rt.ctx;
          let a = ca rt in
          charge1 rt.ctx;
          bop rt.ctx a vb
      | None ->
        let cb = compile_expr cenv b_e in
        fun rt ->
          charge1 rt.ctx;
          let a = ca rt in
          let b = cb rt in
          bop rt.ctx a b))
  | Ast.Logical (Ast.And, a_e, b_e) ->
    let ca = compile_expr cenv a_e and cb = compile_expr cenv b_e in
    fun rt ->
      charge1 rt.ctx;
      let a = ca rt in
      if truthy_v a then cb rt else a
  | Ast.Logical (Ast.Or, a_e, b_e) ->
    let ca = compile_expr cenv a_e and cb = compile_expr cenv b_e in
    fun rt ->
      charge1 rt.ctx;
      let a = ca rt in
      if truthy_v a then a else cb rt
  | Ast.Cond (c_e, t_e, f_e) ->
    let cc = compile_expr cenv c_e in
    let ct = compile_expr cenv t_e and cf = compile_expr cenv f_e in
    fun rt ->
      charge1 rt.ctx;
      if truthy_v (cc rt) then ct rt else cf rt
  | Ast.Incr (prefix, lv) -> compile_step cenv lv 1.0 prefix
  | Ast.Decr (prefix, lv) -> compile_step cenv lv (-1.0) prefix
  | Ast.Delete (obj_e, field) -> (
    let cobj = compile_expr cenv obj_e in
    fun rt ->
      charge1 rt.ctx;
      match cobj rt with
      | Vobj o ->
        obj_delete o field;
        Vbool true
      | v -> error "cannot delete property '%s' of a %s" field (type_name v))

and compile_step cenv lv delta prefix : cexpr =
  match lv with
  | Ast.Lident name when ( match resolve cenv name with [ (0, _) ] -> true | _ -> false) -> (
    (* Fused loop-counter update on a local slot. *)
    let s = match resolve cenv name with [ (0, s) ] -> s | _ -> assert false in
    fun rt ->
      charge1 rt.ctx;
      match rt.frames with
      | f :: _ ->
        let cur = Array.unsafe_get f s in
        if cur != undeclared then begin
          let old = match cur with Vnum x -> x | v -> to_number v in
          let updated = old +. delta in
          Array.unsafe_set f s (Vnum updated);
          Vnum (if prefix then updated else old)
        end
        else begin
          let old =
            match global_ref rt name with
            | Some r -> ( match !r with Vnum x -> x | v -> to_number v)
            | None -> Float.nan
          in
          let updated = old +. delta in
          write_global rt name (Vnum updated);
          Vnum (if prefix then updated else old)
        end
      | [] -> assert false)
  | _ ->
    let clv = compile_lvalue cenv lv in
    fun rt ->
      charge1 rt.ctx;
      let old = match clv.lread rt with Vnum x -> x | v -> to_number v in
      let updated = old +. delta in
      clv.lwrite rt (Vnum updated);
      Vnum (if prefix then updated else old)

and compile_lvalue cenv (lv : Ast.lvalue) : clval =
  match lv with
  | Ast.Lident name ->
    {
      lread = compile_var_read cenv name ~on_missing:(fun _ -> Vundefined);
      lwrite = compile_var_write cenv name;
    }
  | Ast.Lmember (obj_e, name) ->
    let cobj = compile_expr cenv obj_e in
    let atom = Atom.intern name in
    let ric = new_ic () and wic = new_ic () in
    {
      lread = (fun rt -> member_get_ic rt ric atom name (cobj rt));
      lwrite = (fun rt v -> member_set_ic wic atom name (cobj rt) v);
    }
  | Ast.Lindex (obj_e, idx_e) ->
    let cobj = compile_expr cenv obj_e and cidx = compile_expr cenv idx_e in
    {
      lread =
        (fun rt ->
          let obj = cobj rt in
          let idx = cidx rt in
          I.index_get rt.ctx obj idx);
      lwrite =
        (fun rt v ->
          let obj = cobj rt in
          let idx = cidx rt in
          I.index_set rt.ctx obj idx v);
    }

(* --- statement compilation ------------------------------------------- *)

and compile_stmt cenv (s : Ast.stmt) : cstmt =
  match s.Ast.sdesc with
  | Ast.Sexpr e ->
    let ce = compile_expr cenv e in
    fun rt ->
      charge1 rt.ctx;
      ignore (ce rt)
  | Ast.Svar bindings -> (
    let cbindings =
      List.map
        (fun (name, init) -> (compile_decl cenv name, Option.map (compile_expr cenv) init))
        bindings
    in
    match cbindings with
    | [ (d, Some ce) ] ->
      fun rt ->
        charge1 rt.ctx;
        run_decl d rt (ce rt)
    | [ (d, None) ] ->
      fun rt ->
        charge1 rt.ctx;
        run_decl d rt Vundefined
    | cbindings ->
      fun rt ->
        charge1 rt.ctx;
        List.iter
          (fun (d, init) ->
            let v = match init with Some ce -> ce rt | None -> Vundefined in
            run_decl d rt v)
          cbindings)
  | Ast.Sif (cond, then_b, else_b) ->
    let cc = compile_expr cenv cond in
    let ct = compile_body cenv then_b and ce = compile_body cenv else_b in
    fun rt ->
      charge1 rt.ctx;
      if truthy_v (cc rt) then ct rt else ce rt
  | Ast.Swhile (cond, body) ->
    let cc = compile_expr cenv cond in
    let cbi = guard_continue body (compile_body cenv body) in
    let loop =
      guard_break body (fun rt ->
          while truthy_v (cc rt) do
            cbi rt
          done)
    in
    fun rt ->
      charge1 rt.ctx;
      loop rt
  | Ast.Sdo_while (body, cond) ->
    let cbi = guard_continue body (compile_body cenv body) in
    let cc = compile_expr cenv cond in
    let loop =
      guard_break body (fun rt ->
          let continue = ref true in
          while !continue do
            cbi rt;
            continue := truthy_v (cc rt)
          done)
    in
    fun rt ->
      charge1 rt.ctx;
      loop rt
  | Ast.Sfor (init, cond, step, body) -> (
    let cinit = Option.map (compile_stmt cenv) init in
    let ccond = Option.map (compile_expr cenv) cond in
    let cstep = Option.map (compile_expr cenv) step in
    let cbi = guard_continue body (compile_body cenv body) in
    (* Specialize on which clauses exist so the per-iteration path has
       no Option dispatch and no allocated [check] closure. *)
    let loop =
      match (ccond, cstep) with
      | Some cc, Some cs ->
        fun rt ->
          while truthy_v (cc rt) do
            cbi rt;
            ignore (cs rt)
          done
      | Some cc, None ->
        fun rt ->
          while truthy_v (cc rt) do
            cbi rt
          done
      | None, Some cs ->
        fun rt ->
          while true do
            cbi rt;
            ignore (cs rt)
          done
      | None, None ->
        fun rt ->
          while true do
            cbi rt
          done
    in
    let loop = guard_break body loop in
    match cinit with
    | Some ci ->
      fun rt ->
        charge1 rt.ctx;
        ci rt;
        loop rt
    | None ->
      fun rt ->
        charge1 rt.ctx;
        loop rt)
  | Ast.Sfor_in (name, subject_e, body) ->
    let csubj = compile_expr cenv subject_e in
    let decl = compile_decl cenv name in
    let bind = compile_var_bind cenv name in
    let cbi = guard_continue body (compile_body cenv body) in
    fun rt ->
      charge1 rt.ctx;
      let subject = csubj rt in
      run_decl decl rt Vundefined;
      (try
         match subject with
         | Vobj o ->
           List.iter
             (fun key ->
               bind rt (Vstr key);
               cbi rt)
             (obj_keys o)
         | Varr a ->
           for i = 0 to a.len - 1 do
             bind rt (Vnum (float_of_int i));
             cbi rt
           done
         | Vnull | Vundefined -> ()
         | v -> error "cannot enumerate a %s" (type_name v)
       with I.Break_exc -> ())
  | Ast.Sreturn e -> (
    match e with
    | Some e ->
      let ce = compile_expr cenv e in
      fun rt ->
        charge1 rt.ctx;
        raise (I.Return_exc (ce rt))
    | None ->
      fun rt ->
        charge1 rt.ctx;
        raise (I.Return_exc Vundefined))
  | Ast.Sbreak ->
    fun rt ->
      charge1 rt.ctx;
      raise I.Break_exc
  | Ast.Scontinue ->
    fun rt ->
      charge1 rt.ctx;
      raise I.Continue_exc
  | Ast.Sfunc _ ->
    (* Hoisted by [compile_body]; execution is a charged no-op. *)
    fun rt -> I.charge_fuel rt.ctx 1
  | Ast.Sblock stmts ->
    let cb = compile_body cenv stmts in
    fun rt ->
      charge1 rt.ctx;
      cb rt
  | Ast.Sthrow e ->
    let ce = compile_expr cenv e in
    fun rt ->
      charge1 rt.ctx;
      raise (I.Throw_exc (ce rt))
  | Ast.Stry (body, name, handler) ->
    let cb = compile_body cenv body in
    let decl = compile_decl cenv name in
    let ch = compile_body cenv handler in
    fun rt ->
      charge1 rt.ctx;
      (try cb rt with
      | I.Throw_exc v ->
        run_decl decl rt v;
        ch rt
      | Script_error msg ->
        run_decl decl rt (Vstr msg);
        ch rt)

(* Statement lists re-hoist their function declarations on every entry,
   like the reference [exec_body] (fresh closure values each time, no
   fuel or alloc charge). *)
and compile_body cenv (stmts : Ast.stmt list) : cstmt =
  let hoisted =
    List.filter_map
      (fun (s : Ast.stmt) ->
        match s.Ast.sdesc with
        | Ast.Sfunc (name, params, body) ->
          Some (compile_decl cenv name, compile_function cenv ~fname:name params body)
        | _ -> None)
      stmts
  in
  let cstmts = Array.of_list (List.map (compile_stmt cenv) stmts) in
  (* Size-specialized sequencing: loop bodies re-enter every iteration,
     and [Array.iter f] with a closure over [rt] would allocate per
     entry. *)
  let seq =
    match cstmts with
    | [||] -> fun _ -> ()
    | [| c0 |] -> c0
    | [| c0; c1 |] ->
      fun rt ->
        c0 rt;
        c1 rt
    | [| c0; c1; c2 |] ->
      fun rt ->
        c0 rt;
        c1 rt;
        c2 rt
    | _ ->
      let n = Array.length cstmts in
      fun rt ->
        for i = 0 to n - 1 do
          (Array.unsafe_get cstmts i) rt
        done
  in
  match hoisted with
  | [] -> seq
  | hoisted ->
    let hoisted = Array.of_list hoisted in
    let nh = Array.length hoisted in
    fun rt ->
      for i = 0 to nh - 1 do
        let decl, code = Array.unsafe_get hoisted i in
        run_decl decl rt
          (Vfun (Compiled_fn { code; captured = rt.frames; cglobals = rt.globals }))
      done;
      seq rt

and compile_function cenv ~fname params body : Value.compiled_code =
  let si = { slots = Hashtbl.create 16; nslots = 0 } in
  let param_slots = Array.of_list (List.map (slot_of si) params) in
  List.iter (collect_stmt si) body;
  let cbody = compile_body (si :: cenv) body in
  let nslots = si.nslots in
  let nparams = Array.length param_slots in
  let poolable = not (List.exists stmt_has_func body) in
  let ccall ctx ~this ~globals captured args =
    (* The caller ([Interp.apply] or a compiled call site) has already
       charged the 4-unit invocation fuel. *)
    let frame =
      if poolable then frame_acquire ctx nslots else Array.make nslots undeclared
    in
    let argv = Array.of_list args in
    let nargs = Array.length argv in
    for i = 0 to nparams - 1 do
      frame.(param_slots.(i)) <- (if i < nargs then argv.(i) else Vundefined)
    done;
    let rt = { ctx; globals; frames = frame :: captured; this } in
    let result =
      try
        cbody rt;
        Vundefined
      with
      | I.Return_exc v -> v
      (* break/continue must not cross a function boundary *)
      | I.Break_exc -> error "'break' outside of a loop"
      | I.Continue_exc -> error "'continue' outside of a loop"
    in
    (* Only on normal exits: a propagating exception abandons the
       frame to the GC rather than risk recycling something a handler
       still reaches. *)
    if poolable then frame_release ctx frame;
    result
  in
  { cfname = fname; ccall }

(* --- whole programs --------------------------------------------------- *)

type citem = Cexpr of cexpr | Cstmt of cstmt

type program = { hoisted : (string * Value.compiled_code) array; items : citem array }

let compile (prog : Ast.program) : program =
  let cenv : cenv = [] in
  let hoisted =
    List.filter_map
      (fun (s : Ast.stmt) ->
        match s.Ast.sdesc with
        | Ast.Sfunc (name, params, body) ->
          Some (name, compile_function cenv ~fname:name params body)
        | _ -> None)
      prog
  in
  let items =
    List.map
      (fun (s : Ast.stmt) ->
        match s.Ast.sdesc with
        | Ast.Sexpr e -> Cexpr (compile_expr cenv e)
        | _ -> Cstmt (compile_stmt cenv s))
      prog
  in
  { hoisted = Array.of_list hoisted; items = Array.of_list items }

let run ctx (p : program) : Value.t =
  let rt = { ctx; globals = ctx.globals; frames = []; this = Vundefined } in
  (* Toplevel: hoist functions, then run; remember last expression
     value — mirroring the reference [run], including its quirk of
     evaluating toplevel expression statements without the
     per-statement fuel charge. *)
  for i = 0 to Array.length p.hoisted - 1 do
    let name, code = Array.unsafe_get p.hoisted i in
    I.define_global ctx name
      (Vfun (Compiled_fn { code; captured = []; cglobals = ctx.globals }))
  done;
  let last = ref Vundefined in
  (try
     for i = 0 to Array.length p.items - 1 do
       match Array.unsafe_get p.items i with
       | Cexpr ce -> last := ce rt
       | Cstmt cs -> cs rt
     done
   with
  | I.Return_exc v -> last := v
  | I.Throw_exc v -> error "uncaught exception: %s" (to_string v)
  | I.Break_exc -> error "'break' outside of a loop"
  | I.Continue_exc -> error "'continue' outside of a loop");
  !last

(* --- the compiled-program cache --------------------------------------- *)

(* The one place a script body is named and parsed. Keyed by SHA-256 of
   the body: the client wall, a site script and the server wall are
   each parsed and compiled once per process, no matter how many stages
   or simulated nodes load them (§4's context amortization taken one
   step further). An entry keeps the parsed program next to the
   compiled one, so admission-time analysis reads the AST the compiler
   lowered instead of parsing the body again, and the digest, which
   stages carry as the name offload envelopes ship. Every entry is the
   parse of a body whose SHA-256 is its key, and [lookup] is the only
   way in: a hash alone never puts a program here. Only successful
   parses are cached — failing scripts are negative-cached upstream by
   the node.

   The table is bounded with LRU eviction. Diffusion's hash-miss
   offload traffic makes unbounded growth reachable (every distinct
   script body a peer ever names lands here), and flushing the whole
   table on overflow would throw away the hot wall scripts along with
   the flood. *)

type script = { digest : string; ast : Ast.program; program : program }

type cache_stats = { hits : int; misses : int; entries : int; evictions : int }

type cache_entry = { script : script; mutable last_used : int }

let cache : (string, cache_entry) Hashtbl.t = Hashtbl.create 64

let cache_hits = ref 0

let cache_misses = ref 0

let cache_evictions = ref 0

let cache_capacity = 1024

(* Monotone access clock: cheaper than timestamps and immune to the
   simulated-vs-wall clock question (the cache is process-wide). *)
let cache_tick = ref 0

let touch entry =
  incr cache_tick;
  entry.last_used <- !cache_tick

let cache_stats () =
  {
    hits = !cache_hits;
    misses = !cache_misses;
    entries = Hashtbl.length cache;
    evictions = !cache_evictions;
  }

let cache_clear () = Hashtbl.reset cache

let evict_lru () =
  let victim =
    Hashtbl.fold
      (fun key entry acc ->
        match acc with
        | Some (_, best) when best.last_used <= entry.last_used -> acc
        | _ -> Some (key, entry))
      cache None
  in
  match victim with
  | Some (key, _) ->
    Hashtbl.remove cache key;
    incr cache_evictions
  | None -> ()

(* Compile [ast] under [digest] and cache the result. *)
let admit digest ast =
  while Hashtbl.length cache >= cache_capacity do
    evict_lru ()
  done;
  let script = { digest; ast; program = compile ast } in
  let entry = { script; last_used = 0 } in
  touch entry;
  Hashtbl.replace cache digest entry;
  script

let find_cached_by_hash hash =
  match Hashtbl.find_opt cache hash with
  | Some entry ->
    touch entry;
    Some entry.script
  | None -> None

let lookup ?on_cache source =
  let digest = Nk_crypto.Sha256.digest source in
  match Hashtbl.find_opt cache digest with
  | Some entry ->
    incr cache_hits;
    touch entry;
    (match on_cache with Some f -> f `Hit | None -> ());
    entry.script
  | None ->
    incr cache_misses;
    (match on_cache with Some f -> f `Miss | None -> ());
    admit digest (Parser.parse source)

let run_string ctx source = run ctx (lookup source).program
