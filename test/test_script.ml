(* The NKScript engine ([Compile]): language semantics, builtins, and
   the sandbox (fuel, heap, kill, untrusted input). *)

open Core.Script

let eval src =
  let ctx = Interp.create () in
  Builtins.install ctx;
  Compile.run_string ctx src

let eval_str src = Value.to_string (eval src)

let eval_num src = Value.to_number (eval src)

let check_num name expected src = Alcotest.(check (float 1e-9)) name expected (eval_num src)

let check_str name expected src = Alcotest.(check string) name expected (eval_str src)

let test_arithmetic () =
  check_num "add" 7.0 "3 + 4";
  check_num "precedence" 14.0 "2 + 3 * 4";
  check_num "parens" 20.0 "(2 + 3) * 4";
  check_num "division" 2.5 "5 / 2";
  check_num "modulo" 1.0 "7 % 3";
  check_num "negative" (-5.0) "-5";
  check_num "unary chain" 5.0 "- -5";
  check_num "float literal" 3.14 "3.14";
  check_num "hex literal" 255.0 "0xff";
  check_num "exponent" 1500.0 "1.5e3"

let test_string_ops () =
  check_str "concat" "ab" "\"a\" + \"b\"";
  check_str "number coercion" "x1" "\"x\" + 1";
  check_num "length" 5.0 "\"hello\".length";
  check_str "upper" "HI" "\"hi\".toUpperCase()";
  check_str "substring" "ell" "\"hello\".substring(1, 4)";
  check_num "indexOf" 2.0 "\"hello\".indexOf(\"ll\")";
  check_num "indexOf missing" (-1.0) "\"hello\".indexOf(\"z\")";
  check_str "replace" "heLLo" "\"hello\".replace(\"ll\", \"LL\")";
  check_str "split+join" "a|b|c" "\"a,b,c\".split(\",\").join(\"|\")";
  check_str "charAt" "e" "\"hello\".charAt(1)";
  check_str "trim" "x" "\"  x \".trim()";
  check_str "single quotes" "ok" "'ok'";
  check_str "escapes" "a\nb" "\"a\\nb\""

let test_comparison_equality () =
  check_num "lt" 1.0 "(1 < 2) ? 1 : 0";
  check_num "ge" 1.0 "(2 >= 2) ? 1 : 0";
  check_num "string compare" 1.0 "(\"abc\" < \"abd\") ? 1 : 0";
  check_num "eq num" 1.0 "(1 == 1) ? 1 : 0";
  check_num "eq coerce" 1.0 "(1 == \"1\") ? 1 : 0";
  check_num "neq" 1.0 "(1 != 2) ? 1 : 0";
  check_num "null eq undefined" 1.0 "(null == undefined) ? 1 : 0";
  check_num "nan neq" 0.0 "(0/0 == 0/0) ? 1 : 0"

let test_logic () =
  check_num "and shortcircuit" 0.0 "false && undefinedFunctionNotCalled()";
  check_num "or shortcircuit" 1.0 "true || undefinedFunctionNotCalled()";
  check_str "or returns value" "fallback" "null || \"fallback\"";
  check_num "not" 1.0 "(!false) ? 1 : 0";
  check_num "truthiness empty string" 0.0 "(\"\") ? 1 : 0";
  check_num "truthiness object" 1.0 "({}) ? 1 : 0"

let test_variables_and_scope () =
  check_num "var" 10.0 "var x = 10; x";
  check_num "assignment" 6.0 "var x = 5; x = 6; x";
  check_num "compound" 15.0 "var x = 5; x += 10; x";
  check_num "multi declaration" 3.0 "var a = 1, b = 2; a + b";
  check_num "closure capture" 42.0
    "function make(n) { return function() { return n; }; } var f = make(42); f()";
  check_num "closures are independent" 3.0
    {| function counter() { var n = 0; return function() { n = n + 1; return n; }; }
       var a = counter(); var b = counter();
       a(); a(); a() - 0; b(); a; 3 |};
  check_num "inner var does not leak via function" 1.0
    "function f() { var hidden = 99; return 1; } f()"

let test_increment_decrement () =
  check_num "postfix returns old" 5.0 "var x = 5; x++";
  check_num "postfix increments" 6.0 "var x = 5; x++; x";
  check_num "prefix returns new" 6.0 "var x = 5; ++x";
  check_num "decrement" 4.0 "var x = 5; --x";
  check_num "member increment" 2.0 "var o = { n: 1 }; o.n++; o.n"

let test_control_flow () =
  check_num "if true" 1.0 "var r = 0; if (1 < 2) { r = 1; } else { r = 2; } r";
  check_num "if false" 2.0 "var r = 0; if (1 > 2) { r = 1; } else { r = 2; } r";
  check_num "single-statement if" 7.0 "var r = 0; if (true) r = 7; r";
  check_num "while" 45.0 "var s = 0, i = 0; while (i < 10) { s += i; i++; } s";
  check_num "do-while runs once" 1.0 "var n = 0; do { n++; } while (false); n";
  check_num "for" 45.0 "var s = 0; for (var i = 0; i < 10; i++) { s += i; } s";
  check_num "break" 5.0 "var i = 0; while (true) { if (i == 5) break; i++; } i";
  check_num "continue" 25.0
    "var s = 0; for (var i = 0; i < 10; i++) { if (i % 2 == 0) continue; s += i; } s";
  check_num "for-in array" 3.0 "var n = 0; var a = [10, 20, 30]; for (var i in a) { n++; } n";
  check_num "for-in object" 2.0 "var n = 0; for (var k in { a: 1, b: 2 }) { n++; } n"

let test_functions () =
  check_num "declaration" 9.0 "function sq(x) { return x * x; } sq(3)";
  check_num "hoisting" 4.0 "var r = early(); function early() { return 4; } r";
  check_num "recursion" 120.0 "function fact(n) { return n < 2 ? 1 : n * fact(n - 1); } fact(5)";
  check_num "missing args are undefined" 1.0 "function f(a, b) { return b == undefined ? 1 : 0; } f(5)";
  check_num "extra args ignored" 3.0 "function f(a) { return a; } f(3, 4, 5)";
  check_num "no return yields undefined" 1.0
    "function f() { } (f() == undefined) ? 1 : 0";
  check_num "function expression" 8.0 "var twice = function(x) { return 2 * x; }; twice(4)";
  check_num "higher order" 11.0 "function apply(f, x) { return f(x); } apply(function(v) { return v + 1; }, 10)"

let test_objects () =
  check_num "literal and member" 1.0 "var o = { a: 1 }; o.a";
  check_num "index access" 2.0 "var o = { b: 2 }; o[\"b\"]";
  check_num "assignment" 3.0 "var o = {}; o.c = 3; o.c";
  check_num "nested" 4.0 "var o = { in_: { deep: 4 } }; o.in_.deep";
  check_num "missing is undefined" 1.0 "var o = {}; (o.nothing == undefined) ? 1 : 0";
  check_num "method this" 5.0 "var o = { v: 5, get: function() { return this.v; } }; o.get()";
  check_num "string keys" 6.0 "var o = { \"with space\": 6 }; o[\"with space\"]";
  check_num "typeof object" 1.0 "(typeof {} == \"object\") ? 1 : 0"

let test_arrays () =
  check_num "literal length" 3.0 "[1, 2, 3].length";
  check_num "index" 20.0 "var a = [10, 20, 30]; a[1]";
  check_num "assignment grows" 5.0 "var a = []; a[4] = 1; a.length";
  check_num "push/pop" 2.0 "var a = [1, 2, 3]; a.pop(); a.length";
  check_num "shift" 1.0 "var a = [1, 2]; a.shift()";
  check_str "join" "1-2-3" "[1, 2, 3].join(\"-\")";
  check_num "indexOf" 1.0 "[5, 6, 7].indexOf(6)";
  check_num "map" 6.0 "var s = 0; [1, 2, 3].map(function(x) { return x * 2; }).forEach(function(x) { s += x; }); s / 2";
  check_num "filter" 2.0 "[1, 2, 3, 4].filter(function(x) { return x % 2 == 0; }).length";
  check_str "sort default" "a,b,c" "[\"c\", \"a\", \"b\"].sort().join(\",\")";
  check_str "sort comparator" "3,2,1"
    "[1, 3, 2].sort(function(a, b) { return b - a; }).join(\",\")";
  check_str "slice" "2,3" "[1, 2, 3, 4].slice(1, 3).join(\",\")";
  check_str "concat" "1,2,3,4" "[1, 2].concat([3, 4]).join(\",\")";
  check_str "reverse" "3,2,1" "[1, 2, 3].reverse().join(\",\")"

let test_bytearrays () =
  check_num "empty" 0.0 "var b = new ByteArray(); b.length";
  check_num "append string" 5.0 "var b = new ByteArray(); b.append(\"hello\"); b.length";
  check_str "toString" "hello" "var b = new ByteArray(\"hello\"); b.toString()";
  check_num "byte read" 104.0 "var b = new ByteArray(\"hi\"); b[0]";
  check_num "byte write" 72.0 "var b = new ByteArray(\"hi\"); b[0] = 72; b[0]";
  check_str "append bytearray" "ab" "var x = new ByteArray(\"a\"); var y = new ByteArray(\"b\"); x.append(y); x.toString()";
  check_str "slice" "ell" "var b = new ByteArray(\"hello\"); b.slice(1, 4).toString()";
  check_num "typeof" 1.0 "(typeof new ByteArray() == \"bytearray\") ? 1 : 0"

let test_exceptions () =
  check_num "try-catch" 1.0 "var r = 0; try { throw \"x\"; r = 2; } catch (e) { r = 1; } r";
  check_str "catch binds value" "boom"
    "var r; try { throw \"boom\"; } catch (e) { r = e; } r";
  check_num "runtime error caught" 1.0
    "var r = 0; try { undefined.field; } catch (e) { r = 1; } r";
  (match eval "throw \"unhandled\";" with
   | exception Value.Script_error _ -> ()
   | _ -> Alcotest.fail "uncaught throw should raise")


let test_stray_break_is_an_error () =
  List.iter
    (fun src ->
      match eval src with
      | exception Value.Script_error _ -> ()
      | _ -> Alcotest.failf "expected error for %S" src)
    [
      "break;";
      "continue;";
      "function f() { break; } f()";
      "while (true) { var g = function() { break; }; g(); }";
    ]


let test_delete_operator () =
  check_num "deleted property is gone" 1.0
    "var o = { a: 1, b: 2 }; delete o.a; (o.a == undefined) ? 1 : 0";
  check_num "other properties survive" 2.0 "var o = { a: 1, b: 2 }; delete o.a; o.b";
  check_num "delete returns true" 1.0 "var o = { a: 1 }; delete o.a ? 1 : 0";
  check_num "for-in skips deleted" 1.0
    "var o = { a: 1, b: 2 }; delete o.a; var n = 0; for (var k in o) { n++; } n";
  (match eval "delete 5" with
   | exception Parser.Parse_error _ -> ()
   | _ -> Alcotest.fail "delete of a non-property should not parse")

let test_builtins () =
  check_num "Math.floor" 3.0 "Math.floor(3.9)";
  check_num "Math.max" 7.0 "Math.max(1, 7, 5)";
  check_num "Math.pow" 8.0 "Math.pow(2, 3)";
  check_num "Math.sqrt" 4.0 "Math.sqrt(16)";
  check_num "parseInt" 42.0 "parseInt(\"42abc\")";
  check_num "parseInt trims" 7.0 "parseInt(\" 7 \")";
  check_num "parseFloat" 2.5 "parseFloat(\"2.5\")";
  check_num "isNaN" 1.0 "isNaN(parseInt(\"zz\")) ? 1 : 0";
  check_str "String()" "12" "String(12)";
  check_num "Number()" 12.0 "Number(\"12\")";
  check_num "Math.random in range" 1.0
    "var ok = 1; for (var i = 0; i < 50; i++) { var r = Math.random(); if (r < 0 || r >= 1) ok = 0; } ok"

let test_math_random_deterministic () =
  let run () =
    let ctx = Interp.create () in
    Builtins.install ~seed:99 ctx;
    Value.to_number (Compile.run_string ctx "Math.random()")
  in
  Alcotest.(check (float 0.0)) "same seed, same value" (run ()) (run ())

let test_parse_errors () =
  List.iter
    (fun src ->
      match Parser.parse src with
      | exception Parser.Parse_error _ -> ()
      | exception Lexer.Lex_error _ -> ()
      | _ -> Alcotest.failf "expected syntax error for %S" src)
    [ "var"; "if ("; "function () {"; "1 +"; "var x = ;"; "{ a: }"; "\"unterminated"; "/* open" ]

let test_comments () =
  check_num "line comment" 3.0 "// note\n1 + 2";
  check_num "block comment" 3.0 "/* multi\nline */ 1 + 2";
  check_num "comment inside expr" 3.0 "1 + /* two */ 2"

let test_fuel_limit () =
  let ctx = Interp.create ~max_fuel:10_000 () in
  Builtins.install ctx;
  match Compile.run_string ctx "while (true) { }" with
  | exception Interp.Resource_exhausted _ -> ()
  | _ -> Alcotest.fail "expected fuel exhaustion"

let test_heap_limit () =
  (* The paper's misbehaving script: repeatedly doubling a string. *)
  let ctx = Interp.create ~max_heap_bytes:1_000_000 () in
  Builtins.install ctx;
  match Compile.run_string ctx {| var s = "x"; while (true) { s = s + s; } |} with
  | exception Interp.Resource_exhausted msg ->
    Alcotest.(check bool) "heap message" true
      (Core.Util.Strutil.contains_sub msg ~sub:"heap")
  | _ -> Alcotest.fail "expected heap exhaustion"

let test_heap_limit_bytearray () =
  let ctx = Interp.create ~max_heap_bytes:100_000 () in
  Builtins.install ctx;
  match
    Compile.run_string ctx
      {| var b = new ByteArray(); while (true) { b.append("xxxxxxxxxxxxxxxx"); } |}
  with
  | exception Interp.Resource_exhausted _ -> ()
  | _ -> Alcotest.fail "expected heap exhaustion via bytearray"

let test_kill () =
  let ctx = Interp.create () in
  Builtins.install ctx;
  Interp.kill ctx;
  (match Compile.run_string ctx "1 + 1" with
   | exception Interp.Terminated -> ()
   | _ -> Alcotest.fail "killed context should not run");
  Interp.revive ctx;
  Alcotest.(check (float 0.)) "revived" 2.0 (Value.to_number (Compile.run_string ctx "1 + 1"))

let test_usage_counters () =
  let ctx = Interp.create () in
  Builtins.install ctx;
  ignore (Compile.run_string ctx "var s = \"\"; for (var i = 0; i < 100; i++) { s += \"x\"; }");
  Alcotest.(check bool) "fuel consumed" true (Interp.fuel_used ctx > 100);
  Alcotest.(check bool) "heap consumed" true (Interp.heap_used ctx > 100);
  Interp.reset_usage ctx;
  Alcotest.(check int) "fuel reset" 0 (Interp.fuel_used ctx);
  Alcotest.(check int) "heap reset" 0 (Interp.heap_used ctx)

let test_isolation_between_contexts () =
  let a = Interp.create () in
  let b = Interp.create () in
  Builtins.install a;
  Builtins.install b;
  ignore (Compile.run_string a "var secret = 42;");
  match Compile.run_string b "secret" with
  | exception Value.Script_error _ -> ()
  | _ -> Alcotest.fail "contexts must not share globals"

let test_apply () =
  let ctx = Interp.create () in
  Builtins.install ctx;
  ignore (Compile.run_string ctx "function add(a, b) { return a + b; }");
  let f = Option.get (Interp.get_global ctx "add") in
  let result = Interp.apply ctx f [ Value.Vnum 2.0; Value.Vnum 3.0 ] in
  Alcotest.(check (float 0.)) "apply" 5.0 (Value.to_number result)

let test_native_roundtrip () =
  let ctx = Interp.create () in
  Builtins.install ctx;
  let called = ref [] in
  Interp.define_global ctx "record"
    (Value.native "record" (fun _ args ->
         called := List.map Value.to_string args :: !called;
         Value.Vnum (float_of_int (List.length args))));
  ignore (Compile.run_string ctx "record(\"a\", 1, true)");
  Alcotest.(check (list (list string))) "args seen" [ [ "a"; "1"; "true" ] ] !called

let test_figure2_transcoding_script () =
  (* The paper's Fig. 2 handler, structurally: read chunks, branch on
     dimensions, compute scaled sizes. *)
  (* A 352x416 portrait image is height-bound: w = x/y * 176. *)
  check_num "fig2 aspect math"
    (352.0 /. 416.0 *. 176.0)
    {|
var dim = { x: 352, y: 416 };
var w = dim.x, h = dim.y;
if (dim.x > 176 || dim.y > 208) {
  if (dim.x / 176 > dim.y / 208) {
    w = 176; h = dim.y / dim.x * 208;
  } else {
    w = dim.x / dim.y * 176; h = 208;
  }
}
w
|}

(* --- the sandbox against untrusted input ------------------------------ *)

let mib = 1024 * 1024

(* Run [src] under a 1 MiB heap cap. Returns the outcome, the context
   and what the run allocated, in [Alloc.gc_allocated]'s reading. *)
let run_capped src =
  let ctx = Interp.create ~max_heap_bytes:mib () in
  Builtins.install ctx;
  let prog = (Compile.lookup src).Compile.program in
  let outcome, allocated =
    Alloc.gc_allocated (fun () ->
        match Compile.run ctx prog with v -> Ok v | exception e -> Error e)
  in
  (outcome, ctx, allocated)

let expect_capped name src ~check_error =
  match run_capped src with
  | Error e, _, allocated ->
    check_error e;
    Alcotest.(check bool)
      (Printf.sprintf "%s allocates under 1 Mi (%.0f allocated)" name allocated)
      true
      (allocated < float_of_int mib)
  | Ok v, _, _ -> Alcotest.failf "%s: returned a %s" name (Value.type_name v)

(* Heap charged by a script that must succeed. *)
let heap_after src =
  match run_capped src with
  | Ok _, ctx, _ -> Interp.heap_used ctx
  | Error e, _, _ -> Alcotest.failf "%s raised %s" src (Printexc.to_string e)

let heap_exhausted name = function
  | Interp.Resource_exhausted msg -> Alcotest.(check string) name "heap limit exceeded" msg
  | e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e)

let test_string_builders_charge_first () =
  List.iter
    (fun (name, src) -> expect_capped name src ~check_error:(heap_exhausted name))
    [
      ("repeat", {| "ab".repeat(1e9) |});
      ("replace", {| var t = "x".repeat(100000); var s = "a".repeat(10000); s.replace("a", t) |});
      ("join", {| var a = []; a[4999] = 0; a.join("x".repeat(200000)) |});
    ];
  (* A result that fits is charged exactly what [charge_alloc] charges
     for it: length + 16. *)
  Alcotest.(check int) "repeat charge" (6 + 16) (heap_after {| "ab".repeat(3) |});
  Alcotest.(check int) "empty repeat charge" 16 (heap_after {| "".repeat(1e18) |});
  Alcotest.(check int) "replace charge" (3 + 16) (heap_after {| "abcab".replace("ab", "x") |});
  Alcotest.(check int) "join charge" (40 + 3 + 16) (heap_after {| [1, 2].join("-") |});
  check_str "empty repeat returns at once" "" {| "".repeat(1e18) |};
  check_str "repeat result" "ababab" {| "ab".repeat(3) |}

let test_unrepresentable_indices () =
  check_str "huge array read" "undefined" "typeof [5, 6][1e300]";
  check_str "huge string read" "undefined" {| typeof "ab"[1e300] |};
  check_str "negative array read" "undefined" "typeof [5, 6][-1]";
  check_num "huge write leaves a[0] alone" 5.0
    {| var a = [5, 6]; try { a[1e300] = 7; } catch (e) { } a[0] |};
  check_str "huge write error" "bad array index 1e+300"
    {| var a = [5]; var m; try { a[1e300] = 7; } catch (e) { m = e; } m |};
  check_str "huge bytearray write error" "bytearray index 1e+300 out of bounds"
    {| var b = new ByteArray(); b.append("xy"); var m; try { b[1e300] = 7; } catch (e) { m = e; } m |};
  Alcotest.(check int) "holes charged 8 bytes each" (24 + 80) (heap_after "var a = []; a[10] = 1;");
  Alcotest.(check int) "appends and in-bounds writes charge nothing" (24 + 80)
    (heap_after "var a = []; a[10] = 1; a[11] = 2; a[3] = 0;");
  expect_capped "a[1e8] = 1" "var a = []; a[1e8] = 1;" ~check_error:(heap_exhausted "a[1e8]");
  expect_capped "a[4e18] = 1" "var a = []; a[4e18] = 1;" ~check_error:(function
    | Value.Script_error msg -> Alcotest.(check string) "a[4e18]" "bad array index 4e+18" msg
    | e -> Alcotest.failf "a[4e18]: raised %s" (Printexc.to_string e))

(* Array text is built inside the sandbox: [join], [+] and [String(...)]
   on an array that contains itself print it as "" instead of recursing,
   and text that doubles per nesting level spends the heap budget (each
   nested array is charged as a string before it is built) instead of
   the process's memory. A flat array holding one 100 KB string 10,000
   times has about 1 GB of text, which [+] charges before it builds. *)
let test_array_text_in_sandbox () =
  let capped src =
    match run_capped src with
    | Ok v, _, _ -> Value.to_string v
    | Error e, _, _ -> Alcotest.failf "%s raised %s" src (Printexc.to_string e)
  in
  let cyclic = "var a = [1, 2]; a.push(a); " in
  Alcotest.(check string) "String of a cycle" "1,2," (capped (cyclic ^ "String(a)"));
  Alcotest.(check string) "+ on a cycle" "<1,2,>" (capped (cyclic ^ {| "<" + a + ">" |}));
  Alcotest.(check string) "join of a cycle" "1-2-" (capped (cyclic ^ {| a.join("-") |}));
  Alcotest.(check string) "a cycle through another array" "1,"
    (capped "var a = [1]; var b = [a]; a.push(b); String(a)");
  let doubling = "var a = [1]; for (var i = 0; i < 60; i++) { a = [a, a]; } " in
  let repeated =
    {| var s = "x".repeat(100000); var a = []; for (var i = 0; i < 10000; i++) { a.push(s); } |}
  in
  List.iter
    (fun (name, src) ->
      match run_capped src with
      | Error e, _, allocated ->
        heap_exhausted name e;
        (* Each nested array costs a few list cells besides its text. *)
        Alcotest.(check bool)
          (Printf.sprintf "%s allocates under 16 Mi (%.0f allocated)" name allocated)
          true
          (allocated < float_of_int (16 * mib))
      | Ok _, _, _ -> Alcotest.failf "%s: printed under a 1 MiB cap" name)
    [
      ("String", doubling ^ "String(a)");
      ("+", doubling ^ {| "" + a |});
      ("join", doubling ^ "a.join()");
      ("+ on a repeated string", repeated ^ {| "" + a |});
    ];
  (* A flat array is charged what it was before: nothing for String, the
     result for + and join; a nested one adds its text (length + 16). *)
  let flat = "var a = [1, 22, 333]; " in
  let base = heap_after flat in
  Alcotest.(check int) "String of a flat array" base (heap_after (flat ^ "String(a)"));
  Alcotest.(check int) "+ on a flat array" (base + 8 + 16) (heap_after (flat ^ {| a + "" |}));
  Alcotest.(check int) "join of a flat array" (base + 8 + 16) (heap_after (flat ^ "a.join()"));
  let nested = "var a = [1, [22, 333]]; " in
  Alcotest.(check int) "String of a nested array" (heap_after nested + 6 + 16)
    (heap_after (nested ^ "String(a)"))

(* Script text the parser must survive: arbitrary bytes, or a few
   random edits (delete a span, insert junk, duplicate a span) to a
   script that exercises every token class. *)
let mutation_seeds =
  [
    {| var s = "a\n\"q"; /* block */ // line
       for (var i = 0x1f; i < 1.5e3; i++) { s += 'q' + i % 3; }
       function f(a, b) { return a >= b ? a : -b; }
       try { throw { k: [1, 2.5, null] }; } catch (e) { delete e.k; }
       do { i--; } while (i > 0 && !(i == 3) || typeof i != "number");
       var o = new Policy(); o.onRequest = function () { return this.x[0] <<= 2; }; |};
    {| if (x) { y(); } else if (z) { while (true) { break; } } else { continue; }
       for (var k in { a: 1, "b": [], c: function () {} }) { k >>= ~1 ^ 2 | 3 & 4; } |};
  ]

let gen_script_text =
  QCheck.Gen.(
    let junk = string_size ~gen:char (int_bound 8) in
    let edit s =
      let n = String.length s in
      int_bound n >>= fun i ->
      int_bound (min 8 (n - i)) >>= fun len ->
      oneof
        [
          return (String.sub s 0 i ^ String.sub s (i + len) (n - i - len));
          map (fun j -> String.sub s 0 i ^ j ^ String.sub s i (n - i)) junk;
          return (String.sub s 0 (i + len) ^ String.sub s i (n - i));
        ]
    in
    let rec edits k s = if k = 0 then return s else edit s >>= edits (k - 1) in
    oneof
      [
        string_size ~gen:char (int_bound 200);
        (oneofl mutation_seeds >>= fun s -> int_range 1 6 >>= fun k -> edits k s);
      ])

let parse_totality_prop =
  QCheck.Test.make ~name:"parser: arbitrary and mutated text raise only syntax errors"
    ~count:1000 ~long_factor:10
    (QCheck.make ~print:(Printf.sprintf "%S") gen_script_text)
    (fun src ->
      match Parser.parse src with
      | _ -> true
      | exception (Parser.Parse_error _ | Lexer.Lex_error _) -> true)

let interp_numbers_prop =
  QCheck.Test.make ~name:"interp: integer arithmetic matches OCaml" ~count:200
    QCheck.(pair (int_range (-1000) 1000) (int_range (-1000) 1000))
    (fun (a, b) ->
      let src = Printf.sprintf "(%d) + (%d) * 2 - (%d)" a b a in
      eval_num src = float_of_int (a + (b * 2) - a))

let interp_string_concat_prop =
  QCheck.Test.make ~name:"interp: string concatenation matches OCaml" ~count:100
    QCheck.(pair (string_gen_of_size (Gen.int_bound 20) (Gen.char_range 'a' 'z'))
              (string_gen_of_size (Gen.int_bound 20) (Gen.char_range 'a' 'z')))
    (fun (a, b) -> eval_str (Printf.sprintf "%S + %S" a b) = a ^ b)

(* A global string the measured program reads, set up outside the
   measurement: the run itself allocates only what [+] builds. *)
let run_add ~max_heap_bytes s src =
  let ctx = Interp.create ~max_heap_bytes () in
  Interp.define_global ctx "s" (Value.Vstr s);
  let prog = (Compile.lookup src).Compile.program in
  let outcome, allocated =
    Alloc.gc_allocated (fun () ->
        match Compile.run ctx prog with v -> Ok v | exception e -> Error e)
  in
  (outcome, Interp.heap_used ctx, allocated)

let test_string_add_charges_first () =
  let s = String.make 600_000 'x' in
  match run_add ~max_heap_bytes:mib s "s + s" with
  | Error e, heap, allocated ->
    heap_exhausted "s + s" e;
    Alcotest.(check int) "charged the would-be result" (1_200_000 + 16) heap;
    Alcotest.(check bool)
      (Printf.sprintf "allocated %.0f, less than the result's length" allocated)
      true (allocated < 1_200_000.)
  | Ok _, _, _ -> Alcotest.fail "s + s must pass the 1 MiB heap cap"

let test_string_add_empty_side () =
  let s = String.make 1000 'y' in
  List.iter
    (fun src ->
      match run_add ~max_heap_bytes:mib s src with
      | Ok (Value.Vstr r), heap, _ ->
        Alcotest.(check bool) (src ^ " is s itself") true (r == s);
        Alcotest.(check int) (src ^ " charge") (1000 + 16) heap
      | Ok v, _, _ -> Alcotest.failf "%s gave a %s" src (Value.type_name v)
      | Error e, _, _ -> Alcotest.failf "%s raised %s" src (Printexc.to_string e))
    [ {| "" + s |}; {| s + "" |} ]

let suite =
  [
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "strings" `Quick test_string_ops;
    Alcotest.test_case "comparison and equality" `Quick test_comparison_equality;
    Alcotest.test_case "logic and truthiness" `Quick test_logic;
    Alcotest.test_case "variables and closures" `Quick test_variables_and_scope;
    Alcotest.test_case "increment/decrement" `Quick test_increment_decrement;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "functions" `Quick test_functions;
    Alcotest.test_case "objects" `Quick test_objects;
    Alcotest.test_case "arrays" `Quick test_arrays;
    Alcotest.test_case "byte arrays" `Quick test_bytearrays;
    Alcotest.test_case "exceptions" `Quick test_exceptions;
    Alcotest.test_case "stray break/continue rejected" `Quick test_stray_break_is_an_error;
    Alcotest.test_case "delete operator" `Quick test_delete_operator;
    Alcotest.test_case "builtins" `Quick test_builtins;
    Alcotest.test_case "Math.random is seed-deterministic" `Quick
      test_math_random_deterministic;
    Alcotest.test_case "syntax errors" `Quick test_parse_errors;
    Alcotest.test_case "comments" `Quick test_comments;
    Alcotest.test_case "sandbox: fuel limit" `Quick test_fuel_limit;
    Alcotest.test_case "sandbox: heap limit (string doubling)" `Quick test_heap_limit;
    Alcotest.test_case "sandbox: heap limit (bytearray)" `Quick test_heap_limit_bytearray;
    Alcotest.test_case "sandbox: kill and revive" `Quick test_kill;
    Alcotest.test_case "sandbox: usage counters" `Quick test_usage_counters;
    Alcotest.test_case "sandbox: contexts are isolated" `Quick test_isolation_between_contexts;
    Alcotest.test_case "apply from OCaml" `Quick test_apply;
    Alcotest.test_case "native functions" `Quick test_native_roundtrip;
    Alcotest.test_case "Fig. 2 handler arithmetic" `Quick test_figure2_transcoding_script;
    Alcotest.test_case "sandbox: string builders charge before they allocate" `Quick
      test_string_builders_charge_first;
    Alcotest.test_case "sandbox: unrepresentable array indices" `Quick
      test_unrepresentable_indices;
    Alcotest.test_case "sandbox: array text" `Quick test_array_text_in_sandbox;
    QCheck_alcotest.to_alcotest parse_totality_prop;
    QCheck_alcotest.to_alcotest interp_numbers_prop;
    QCheck_alcotest.to_alcotest interp_string_concat_prop;
    Alcotest.test_case "sandbox: string + charges before it allocates" `Quick
      test_string_add_charges_first;
    Alcotest.test_case "string + with an empty side returns the other operand" `Quick
      test_string_add_empty_side;
  ]
