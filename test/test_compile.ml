(* Differential testing of the closure compiler ([Compile]) against the
   reference tree-walker ([Reference_interp]): identical result values,
   identical observable global state, identical raised exceptions, and — the
   resource monitor depends on it — bit-identical fuel and heap
   accounting. Plus the compiled-program cache. *)

open Core.Script

(* Deep, deterministic rendering of a value (and of reachable structure,
   which [Value.to_string] flattens away for objects). *)
let rec dump depth (v : Value.t) =
  if depth > 5 then "..."
  else
    match v with
    | Value.Varr a ->
      "[" ^ String.concat "," (List.map (dump (depth + 1)) (Value.arr_to_list a)) ^ "]"
    | Value.Vobj o ->
      "{"
      ^ String.concat ","
          (List.map (fun k -> k ^ ":" ^ dump (depth + 1) (Value.obj_get o k)) (Value.obj_keys o))
      ^ "}"
    | Value.Vfun _ -> "<fun>"
    | v -> Value.type_name v ^ ":" ^ Value.to_string v

type outcome = {
  result : (string, string) result;
  fuel : int;
  heap : int;
  globals : string;
}

let observed = [ "a"; "b"; "c"; "x"; "y"; "f"; "g" ]

let observe_ctx ctx result =
  let globals =
    String.concat ";"
      (List.map
         (fun n ->
           match Interp.get_global ctx n with
           | Some v -> n ^ "=" ^ dump 0 v
           | None -> n ^ "=?")
         observed)
  in
  { result; fuel = Interp.fuel_used ctx; heap = Interp.heap_used ctx; globals }

let max_fuel = 20_000

let max_heap = 256_000

let run_with runner input =
  let ctx = Interp.create ~max_fuel ~max_heap_bytes:max_heap () in
  Builtins.install ctx;
  let result =
    match runner ctx input with
    | v -> Ok (dump 0 v)
    | exception Value.Script_error m -> Error ("script error: " ^ m)
    | exception Interp.Resource_exhausted m -> Error ("exhausted: " ^ m)
  in
  observe_ctx ctx result

let show_outcome o =
  Printf.sprintf "%s | fuel=%d heap=%d | %s"
    (match o.result with Ok v -> "ok " ^ v | Error e -> "error " ^ e)
    o.fuel o.heap o.globals

let check_differential name source =
  let reference = run_with Reference_interp.run_string source in
  let compiled = run_with (fun ctx s -> Compile.run_string ctx s) source in
  Alcotest.(check string) (name ^ ": identical outcome") (show_outcome reference)
    (show_outcome compiled)

(* --- fixed corpus: the semantics corners the compiler must preserve --- *)

let corpus =
  [
    ("arith loop", {| var a = 0; for (var i = 0; i < 10; i++) { a += i * i; } a |});
    ("string building", {| var c = ""; var b = 0; while (b < 20) { c += "x"; b++; } c.length |});
    ( "closures over slots",
      {| function mk() { var n = 0; return function() { n += 1; return n; }; }
         var f = mk(); f(); f(); f() |} );
    ( "temporal var shadowing",
      (* reading x before its local [var] executes resolves outward *)
      {| var x = 1; function f() { var r = x; var x = 2; return r * 10 + x; } f() |} );
    ( "hoisted functions",
      {| function f() { return g(); function g() { return 7; } } f() |} );
    ( "per-iteration rehoisting",
      {| var a = []; for (var i = 0; i < 3; i++) { function h() { return i; } a.push(h()); }
         a.join(",") |} );
    ( "constructors",
      {| function P(v) { this.v = v; this.twice = function() { return this.v * 2; }; }
         var p = new P(21); p.twice() |} );
    ("globals from functions", {| function f() { b = 5; } var b = 1; f(); b |});
    ("implicit global creation", {| function f() { made = 5; } f(); made |});
    ( "for-in object snapshot",
      {| var y = { k: 1, m: 2 }; var c = ""; for (var k in y) { c += k; y.extra = 9; } c |} );
    ("for-in array", {| var x = [10, 20, 30]; var a = 0; for (var i in x) { a += x[i]; } a |});
    ("break and continue", {| var a = 0; for (var i = 0; i < 10; i++) {
         if (i == 2) { continue; } if (i > 5) { break; } a += i; } a |});
    ("do-while", {| var a = 0; do { a++; } while (a < 5); a |});
    ("try/catch thrown value", {| var r; try { throw { code: 7 }; } catch (e) { r = e.code; } r |});
    ("try/catch runtime error", {| var r; try { nope(); } catch (e) { r = e; } r |});
    ("uncaught throw", {| throw 3; |});
    ("unknown variable", {| undefinedVar + 1 |});
    ("not a function", {| var a = 3; a(); |});
    ("break outside loop", {| break; |});
    ("toplevel return", {| var a = 1; return a + 1; a = 99; |});
    ("compound member assignment", {| var y = { n: 1 }; y.n += 41; y.n |});
    ("compound index assignment", {| var x = [1, 2]; x[1] *= 21; x[1] |});
    ("prefix/postfix", {| var a = 5; var b = a++ * 10 + ++a; b |});
    ("delete", {| var y = { k: 1, m: 2 }; delete y.k; y.k |});
    ("constant folding", {| "a" + "b" + 1 + 2 |});
    ("folded conditional", {| true ? 1 + 2 * 3 : unbound |});
    ("string methods", {| "Hello".toUpperCase().substring(1, 4) |});
    ("array methods", {| var x = ["c", "a", "b"]; x.sort(); x.slice(1).join("-") |});
    ("many-arg builtin", {| "abcdef".replace("cd", "CD") + "abc".charAt(2) |});
    ("math builtins", {| Math.floor(Math.max(1.5, 2.7)) + Math.abs(0 - 3) |});
    ("typeof and equality", {| typeof (1 == "1") + typeof undefined + (null == undefined) |});
    ("bitwise", {| (0xff & 0x0f) | (1 << 4) ^ 3 |});
    ("fuel exhaustion", {| while (true) { } |});
    ("heap exhaustion", {| var c = "x"; while (true) { c = c + c; } |});
    ("deep recursion fuel", {| function f(n) { return f(n + 1); } f(0) |});
    (* Inline-cache behavior: one call site seeing monomorphic, then
       polymorphic, then shape-shifted receivers must stay agreement-
       exact with the tree-walker (which has no caches at all). *)
    ( "ic monomorphic hits",
      {| function get(o) { return o.k; } var y = { k: 2 };
         var a = 0; for (var i = 0; i < 8; i++) { a += get(y); } a |} );
    ( "ic polymorphic shapes through one site",
      {| function get(o) { return o.k; }
         var a = get({ k: 1 }); var b = get({ m: 9, k: 2 }); var c = get({ k: 3, n: 1 });
         a * 100 + b * 10 + c |} );
    ("ic miss on absent property", {| function get(o) { return o.k; } typeof get({ m: 1 }) |});
    ( "ic shape transitions",
      {| var y = {}; y.a = 1; y.b = 2; y.c = 3; y.a * 100 + y.b * 10 + y.c |} );
    ( "ic after delete demotes to dict",
      {| var y = { k: 1, m: 2 }; function get(o) { return o.m; }
         var before = get(y); delete y.k; y.n = 5;
         before * 100 + get(y) * 10 + y.n |} );
    ( "method ic polymorphic",
      {| function call(o) { return o.f(); }
         var a = call({ f: function () { return 1; } });
         var y = { pad: 0, f: function () { return 2; } };
         a * 10 + call(y) |} );
    ( "member-set ic across shapes",
      {| function set(o, v) { o.k = v; return o.k; }
         var y = {}; set(y, 1); set({ k: 0 }, 2) + y.k |} );
    ( "length ic across receiver types",
      {| function len(o) { return o.length; }
         len("abc") * 100 + len([1, 2]) * 10 + len({ length: 7 }) |} );
    ( "shape reuse across literals",
      {| var u = { k: 1, m: 2 }; var v = { k: 3, m: 4 };
         delete u.k; u.m + v.k * 10 + v.m |} );
  ]

let test_corpus () = List.iter (fun (name, src) -> check_differential name src) corpus

(* --- random programs --------------------------------------------------- *)

let pos = { Ast.line = 0; col = 0 }

let mke desc = { Ast.desc; pos }

let mks sdesc = { Ast.sdesc; spos = pos }

let var_pool = [ "a"; "b"; "c"; "x"; "y" ]

let gen_var = QCheck.Gen.oneofl var_pool

let fun_pool = [ "f"; "g" ]

let num i = mke (Ast.Number (float_of_int i))

(* Numbers at the edges of the runtime: past [Sys.max_array_length],
   past [max_int], negative, fractional, NaN and infinite — as
   operands, repeat counts and array indices. *)
let edge_numbers = [ 1e300; -1e300; 4e18; 1e18; 1e8; -3.5; 0.5; Float.nan; Float.infinity ]

let gen_edge_number =
  QCheck.Gen.map (fun f -> mke (Ast.Number f)) (QCheck.Gen.oneofl edge_numbers)

(* Index writes store constants only, so no array can come to contain
   itself and [Value.to_string] always terminates. *)
let gen_constant =
  QCheck.Gen.(oneof [ map num (int_range (-9) 9); oneofl [ mke (Ast.String "s") ] ])

let gen_index =
  QCheck.Gen.(oneof [ map num (int_range (-1) 12); map num (oneofl [ 40; 300 ]); gen_edge_number ])

let gen_expr_n n =
  QCheck.Gen.(
    fix
      (fun self n ->
        let leaf =
          frequency
            [
              (1, gen_edge_number);
              (3, map (fun i -> num i) (int_range (-9) 9));
              (3, map (fun v -> mke (Ast.Ident v)) gen_var);
              (3, map (fun b -> mke (Ast.Bool b)) bool);
              ( 3,
                oneofl
                  [
                    mke (Ast.String "s");
                    mke (Ast.String "tt");
                    mke Ast.Undefined;
                    mke Ast.Null;
                    mke (Ast.Ident "p");
                    mke Ast.This;
                  ] );
            ]
        in
        let call_method name recv args = mke (Ast.Call (mke (Ast.Member (recv, name)), args)) in
        (* receivers and counts that reach the builders' work as often
           as their error paths *)
        let string_recv =
          oneofl [ mke (Ast.String "s"); mke (Ast.String "tt"); mke (Ast.Ident "c") ]
        in
        let array_recv = return (mke (Ast.Ident "x")) in
        let count = oneof [ map num (int_range 0 4); gen_edge_number ] in
        if n <= 0 then leaf
        else
          let sub = self (n / 2) in
          oneof
            [
              leaf;
              map2
                (fun op (a, b) -> mke (Ast.Binop (op, a, b)))
                (oneofl
                   Ast.
                     [
                       Add; Sub; Mul; Div; Mod; Lt; Le; Gt; Ge; Eq; Neq; Band; Bor; Bxor; Shl; Shr;
                     ])
                (pair sub sub);
              map2
                (fun l (a, b) -> mke (Ast.Logical (l, a, b)))
                (oneofl [ Ast.And; Ast.Or ])
                (pair sub sub);
              map (fun (c, (t, f)) -> mke (Ast.Cond (c, t, f))) (pair sub (pair sub sub));
              map2 (fun op a -> mke (Ast.Unop (op, a))) (oneofl [ Ast.Not; Ast.Neg; Ast.Bnot; Ast.Typeof ]) sub;
              map (fun es -> mke (Ast.Array_lit es)) (list_size (int_bound 3) sub);
              map (fun e -> mke (Ast.Object_lit [ ("k", e) ])) sub;
              (* second layout: same keys in a different order / extra key —
                 drives call sites polymorphic so the compiled evaluator's
                 inline caches see hits, misses, and shape transitions *)
              map2 (fun e1 e2 -> mke (Ast.Object_lit [ ("m", e1); ("k", e2) ])) sub sub;
              map (fun e -> mke (Ast.Member (e, "m"))) sub;
              map2 (fun e v -> mke (Ast.Assign (Ast.Lmember (e, "k"), None, v))) sub sub;
              map2 (fun e v -> mke (Ast.Assign (Ast.Lmember (e, "m"), Some Ast.Add, v))) sub sub;
              (* method invocation through a member site (invoke-method IC) *)
              map (fun e -> mke (Ast.Call (mke (Ast.Member (e, "k")), []))) sub;
              map2 (fun v e -> mke (Ast.Assign (Ast.Lident v, None, e))) gen_var sub;
              map2 (fun v e -> mke (Ast.Assign (Ast.Lident v, Some Ast.Add, e))) gen_var sub;
              map (fun v -> mke (Ast.Incr (true, Ast.Lident v))) gen_var;
              map (fun v -> mke (Ast.Decr (false, Ast.Lident v))) gen_var;
              map2 (fun e i -> mke (Ast.Index (e, i))) sub sub;
              map (fun e -> mke (Ast.Member (e, "k"))) sub;
              map (fun e -> mke (Ast.Member (e, "length"))) sub;
              map2
                (fun fname args -> mke (Ast.Call (mke (Ast.Ident fname), args)))
                (oneofl fun_pool)
                (list_size (int_bound 2) sub);
              (* immediate lambda: (function (p) { return e; })(arg) *)
              map2
                (fun e arg ->
                  mke
                    (Ast.Call (mke (Ast.Func ([ "p" ], [ mks (Ast.Sreturn (Some e)) ])), [ arg ])))
                sub sub;
              map (fun e -> mke (Ast.Call (mke (Ast.Member (e, "join")), [ mke (Ast.String "-") ]))) sub;
              map (fun e -> mke (Ast.Delete (e, "k"))) sub;
              (* the native string builders, which charge before they build *)
              map2
                (fun e c -> call_method "repeat" e [ c ])
                (oneof [ sub; string_recv ])
                (oneof [ sub; count ]);
              map3
                (fun e a b -> call_method "replace" e [ a; b ])
                (oneof [ sub; string_recv ])
                sub sub;
              map2 (fun e sep -> call_method "join" e [ sep ]) (oneof [ sub; array_recv ]) sub;
              (* index writes, in bounds, appending, past the end, or at
                 an index no array can hold *)
              map3
                (fun e i v -> mke (Ast.Assign (Ast.Lindex (e, i), None, v)))
                (oneof [ sub; array_recv ])
                gen_index gen_constant;
            ])
      n)

let gen_stmt =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let expr_g = gen_expr_n (min (max n 1) 8) in
           let block = list_size (int_bound 2) (self (n / 3)) in
           let sexpr = map (fun e -> mks (Ast.Sexpr e)) expr_g in
           if n <= 0 then sexpr
           else
             oneof
               [
                 sexpr;
                 map2 (fun v e -> mks (Ast.Svar [ (v, Some e) ])) gen_var expr_g;
                 map (fun v -> mks (Ast.Svar [ (v, None) ])) gen_var;
                 map
                   (fun (c, (a, b)) -> mks (Ast.Sif (c, a, b)))
                   (pair expr_g (pair block block));
                 (* guaranteed-decreasing while *)
                 map2
                   (fun v body ->
                     mks
                       (Ast.Swhile
                          ( mke (Ast.Binop (Ast.Gt, mke (Ast.Ident v), num 0)),
                            mks
                              (Ast.Sexpr (mke (Ast.Assign (Ast.Lident v, Some Ast.Sub, num 1))))
                            :: body )))
                   gen_var block;
                 map2
                   (fun v body ->
                     mks
                       (Ast.Sfor
                          ( Some (mks (Ast.Svar [ (v, Some (num 0)) ])),
                            Some (mke (Ast.Binop (Ast.Lt, mke (Ast.Ident v), num 3))),
                            Some (mke (Ast.Incr (false, Ast.Lident v))),
                            body )))
                   gen_var block;
                 map
                   (fun (v, (e, body)) -> mks (Ast.Sfor_in (v, e, body)))
                   (pair gen_var (pair expr_g block));
                 map2 (fun b h -> mks (Ast.Stry (b, "e", h))) block block;
                 map (fun e -> mks (Ast.Sthrow e)) expr_g;
                 map (fun b -> mks (Ast.Sblock b)) block;
                 map (fun e -> mks (Ast.Sreturn (Some e))) expr_g;
                 map2
                   (fun fname body ->
                     mks
                       (Ast.Sfunc
                          ( fname,
                            [ "p"; "q" ],
                            body @ [ mks (Ast.Sreturn (Some (mke (Ast.Ident "p")))) ] )))
                   (oneofl fun_pool) block;
               ]))

let prelude =
  [
    mks
      (Ast.Svar
         [
           ("a", Some (num 1));
           ("b", Some (num 2));
           ("c", Some (mke (Ast.String "c")));
           ("x", Some (mke (Ast.Array_lit [ num 1; num 2 ])));
           ("y", Some (mke (Ast.Object_lit [ ("k", num 3) ])));
         ]);
  ]

let gen_program = QCheck.Gen.(list_size (int_range 1 6) gen_stmt)

let differential_prop =
  QCheck.Test.make
    ~name:"compiled evaluator agrees with tree-walker (value, globals, fuel, heap, errors)"
    ~count:500 ~long_factor:10
    (QCheck.make ~print:Pretty.program gen_program)
    (fun stmts ->
      let prog = prelude @ stmts in
      let reference = run_with Reference_interp.run prog in
      let compiled = run_with (fun ctx p -> Compile.run ctx (Compile.compile p)) prog in
      reference = compiled
      || QCheck.Test.fail_reportf "tree-walker: %s\ncompiled:    %s" (show_outcome reference)
           (show_outcome compiled))

(* --- the compiled-program cache ---------------------------------------- *)

let test_cache_hits () =
  Compile.cache_clear ();
  let before = Compile.cache_stats () in
  let source = "var total = 0; for (var i = 0; i < 5; i++) { total += i; } total" in
  let run () =
    let ctx = Interp.create () in
    Builtins.install ctx;
    Value.to_number (Compile.run_string ctx source)
  in
  Alcotest.(check (float 0.)) "first run" 10.0 (run ());
  Alcotest.(check (float 0.)) "second run (cached, fresh ctx)" 10.0 (run ());
  let after = Compile.cache_stats () in
  Alcotest.(check int) "one miss" 1 (after.Compile.misses - before.Compile.misses);
  Alcotest.(check int) "one hit" 1 (after.Compile.hits - before.Compile.hits)

let test_stage_sharing_reports_hit () =
  (* Two stages (two simulated nodes) loading the same site script must
     share one compilation. *)
  Compile.cache_clear ();
  let source =
    {| var p = new Policy(); p.onRequest = function() { }; p.register(); |}
  in
  let host = Core.Vocab.Hostcall.stub () in
  let outcomes = ref [] in
  let build () =
    match
      Core.Pipeline.Stage.of_script ~url:"http://site.org/nakika.js" ~host
        ~on_compile_cache:(fun o -> outcomes := o :: !outcomes)
        ~source ()
    with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  in
  build ();
  build ();
  Alcotest.(check bool) "second load is a cache hit" true (List.mem `Hit !outcomes);
  Alcotest.(check bool) "first load was a miss" true (List.mem `Miss !outcomes)

let test_cache_lru_eviction () =
  (* With the cache full at its 1024 programs, loading one more distinct
     body must evict exactly the least-recently-used entry — not flush
     the table. *)
  Compile.cache_clear ();
  let load source =
    let ctx = Interp.create () in
    Builtins.install ctx;
    ignore (Compile.run_string ctx source)
  in
  let a = "var a = 1; a" and b = "var b = 2; b" and c = "var c = 3; c" in
  let before = Compile.cache_stats () in
  load a;
  load b;
  for i = 1 to 1022 do
    load (Printf.sprintf "var f = %d; f" i)
  done;
  (* Touch [a] so [b] is the LRU victim. *)
  load a;
  load c;
  let after = Compile.cache_stats () in
  Alcotest.(check int) "one eviction" 1 (after.Compile.evictions - before.Compile.evictions);
  Alcotest.(check int) "table stays at capacity" 1024 after.Compile.entries;
  let hash s = Core.Crypto.Sha256.digest s in
  Alcotest.(check bool) "a survived (recently used)" true
    (Compile.find_cached_by_hash (hash a) <> None);
  Alcotest.(check bool) "b evicted (least recently used)" true
    (Compile.find_cached_by_hash (hash b) = None);
  Alcotest.(check bool) "c resident" true (Compile.find_cached_by_hash (hash c) <> None);
  (* Reloading the victim is a fresh miss, not an error. *)
  let miss_before = (Compile.cache_stats ()).Compile.misses in
  load b;
  Alcotest.(check int) "victim recompiles as a miss" 1
    ((Compile.cache_stats ()).Compile.misses - miss_before);
  Compile.cache_clear ()

let test_compiled_handler_apply () =
  (* Event handlers produced by compiled scripts are plain function
     values; [Interp.apply] must invoke them (the pipeline does). *)
  let ctx = Interp.create () in
  Builtins.install ctx;
  ignore (Compile.run_string ctx "function h(n) { return n * 2 + 1; }");
  match Interp.get_global ctx "h" with
  | Some h ->
    Alcotest.(check (float 0.)) "applied" 85.0
      (Value.to_number (Interp.apply ctx h [ Value.Vnum 42.0 ]))
  | None -> Alcotest.fail "handler not defined"

let test_fuel_parity_on_handler_apply () =
  (* Calling the same function must charge the same fuel under both
     evaluators. *)
  let source = "function h(n) { var s = 0; for (var i = 0; i < n; i++) { s += i; } return s; }" in
  let measure loader =
    let ctx = Interp.create () in
    Builtins.install ctx;
    ignore (loader ctx source);
    let h = Option.get (Interp.get_global ctx "h") in
    let before = Interp.fuel_used ctx in
    let v = Value.to_number (Interp.apply ctx h [ Value.Vnum 50.0 ]) in
    (v, Interp.fuel_used ctx - before)
  in
  let v_ref, fuel_ref = measure Reference_interp.run_string in
  let v_cmp, fuel_cmp = measure (fun ctx s -> Compile.run_string ctx s) in
  Alcotest.(check (float 0.)) "same value" v_ref v_cmp;
  Alcotest.(check int) "same fuel per invocation" fuel_ref fuel_cmp

let suite =
  [
    Alcotest.test_case "fixed corpus: compiled = tree-walker" `Quick test_corpus;
    QCheck_alcotest.to_alcotest differential_prop;
    Alcotest.test_case "program cache: one compile per distinct body" `Quick test_cache_hits;
    Alcotest.test_case "program cache: stages share compilations" `Quick
      test_stage_sharing_reports_hit;
    Alcotest.test_case "program cache: bounded LRU eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "compiled handlers respond to apply" `Quick test_compiled_handler_apply;
    Alcotest.test_case "fuel parity on handler invocation" `Quick test_fuel_parity_on_handler_apply;
  ]
