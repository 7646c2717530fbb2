(* The NKScript pretty-printer: canonical-form fixpoint and semantic
   preservation on the paper's scripts. *)

open Core.Script

let reformat src =
  match Pretty.format src with Ok s -> s | Error e -> Alcotest.failf "format: %s" e

(* print (parse s) must be a fixpoint: formatting formatted output
   changes nothing. *)
let check_fixpoint name src =
  let once = reformat src in
  let twice = reformat once in
  Alcotest.(check string) (name ^ ": canonical form is stable") once twice

(* The formatted program must evaluate to the same value. *)
let check_semantics name src =
  let eval s =
    let ctx = Interp.create () in
    Builtins.install ctx;
    Value.to_string (Compile.run_string ctx s)
  in
  Alcotest.(check string) (name ^ ": evaluation preserved") (eval src) (eval (reformat src))

let test_expressions () =
  List.iter
    (fun (src, expected) -> Alcotest.(check string) src expected (String.trim (reformat src)))
    [
      ("1+2*3", "1 + 2 * 3;");
      ("(1+2)*3", "(1 + 2) * 3;");
      ("a.b.c(1)[2]", "a.b.c(1)[2];");
      ("x=y=3", "x = y = 3;");
      ("!(a&&b)||c", "!(a && b) || c;");
      ("typeof x == \"number\"", "typeof x == \"number\";");
      ("a?b:c", "a ? b : c;");
      ("-x+-y", "-x + -y;");
      ("new Policy()", "new Policy();");
      ("[1, [2, 3], {k: 4}]", "[1, [2, 3], { k: 4 }];");
      ("s.replace(\"a\\nb\", \"c\")", "s.replace(\"a\\nb\", \"c\");");
    ]

let test_statement_forms () =
  let formatted =
    reformat
      {|
var a = 1, b;
if (a > 0) { b = 1; } else { b = 2; }
while (a < 10) { a++; }
do { a--; } while (a > 0);
for (var i = 0; i < 3; i++) { b += i; }
for (k in { x: 1 }) { b++; }
function f(x, y) { return x + y; }
try { throw "x"; } catch (e) { b = 0; }
|}
  in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) fragment true (Core.Util.Strutil.contains_sub formatted ~sub:fragment))
    [
      "var a = 1, b;";
      "if (a > 0) {";
      "} else {";
      "while (a < 10) {";
      "do {";
      "for (var i = 0; i < 3; i++) {";
      "for (var k in { x: 1 }) {";
      "function f(x, y) {";
      "try {";
      "catch (e) {";
    ]

let paper_scripts =
  [
    ("Fig. 3 policy", {|
p = new Policy();
p.url = [ "med.nyu.edu", "medschool.pitt.edu" ];
p.client = [ "nyu.edu", "pitt.edu" ];
p.onResponse = function() { var x = 1; }
p.register();
|});
    ("Fig. 5 digital libraries", {|
bmj = "bmj.bmjjournals.com/cgi/reprint";
nejm = "content.nejm.org/cgi/reprint";
p = new Policy();
p.url = [ bmj, nejm ];
p.onRequest = function() {
  if (! System.isLocal(Request.clientIP)) {
    Request.terminate(401);
  }
}
p.register();
|});
    ("nkp.js", Core.Pipeline.Nkp.script);
    ("esi.js", Core.Pipeline.Esi.script);
    ("memory bomb", {|
var p = new Policy();
p.url = ["bomb.example.org"];
p.onResponse = function() {
  var s = "xxxxxxxxxxxxxxxx";
  while (true) { s = s + s; }
}
p.register();
|});
    ("image transcoding", Core.Workload.Extensions.image_transcoding);
    ("annotations",
     Core.Workload.Extensions.annotations ~site:"notes.org" ~target_site:"simm.org");
  ]

let test_paper_scripts_fixpoint () =
  List.iter (fun (name, src) -> check_fixpoint name src) paper_scripts

let test_semantics_preserved () =
  List.iter
    (fun (name, src) -> check_semantics name src)
    [
      ("arith", "var s = 0; for (var i = 0; i < 10; i++) { s += i * i; } s");
      ("strings", "var a = [\"c\", \"a\"]; a.sort().join(\"-\") + \"!\"");
      ("closures", "function mk(n) { return function() { return n * 2; }; } mk(21)()");
      ("exceptions", "var r; try { throw {code: 7}; } catch (e) { r = e.code; } r");
      ("ternary chain", "var x = 5; x > 3 ? (x > 4 ? \"big\" : \"mid\") : \"small\"");
      ("bitwise", "(0xff & 0x0f) | (1 << 4)");
    ]

let test_formatted_policies_register_identically () =
  (* The formatted site script must register the same policies. *)
  let policies src =
    let ctx = Interp.create () in
    Builtins.install ctx;
    let registry = Core.Policy.Script_bridge.create_registry () in
    Core.Policy.Script_bridge.install registry ctx;
    ignore (Compile.run_string ctx src);
    List.map
      (fun p -> (p.Core.Policy.Policy.urls, p.Core.Policy.Policy.next_stages))
      (Core.Policy.Script_bridge.policies registry)
  in
  let src = Core.Workload.Static_page.pred_script ~host:"h.org" ~n:5 ~matching:true in
  Alcotest.(check bool) "same registrations" true (policies src = policies (reformat src))

let test_format_reports_errors () =
  match Pretty.format "var = ;" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected format error"


(* Differential testing: a random expression AST is (a) evaluated by a
   direct reference evaluator over the AST and (b) pretty-printed,
   re-parsed and run through the full interpreter. Any disagreement is
   a bug in the printer, the parser, or the evaluator. *)

let pos = { Ast.line = 0; col = 0 }

let mk desc = { Ast.desc; pos }

let rec reference_eval (e : Ast.expr) : float =
  match e.Ast.desc with
  | Ast.Number n -> n
  | Ast.Bool b -> if b then 1.0 else 0.0
  | Ast.Unop (Ast.Neg, x) -> -.reference_eval x
  | Ast.Unop (Ast.Not, x) -> if reference_eval x <> 0.0 then 0.0 else 1.0
  | Ast.Binop (op, a, b) -> (
    let x = reference_eval a and y = reference_eval b in
    match op with
    | Ast.Add -> x +. y
    | Ast.Sub -> x -. y
    | Ast.Mul -> x *. y
    | Ast.Lt -> if x < y then 1.0 else 0.0
    | Ast.Le -> if x <= y then 1.0 else 0.0
    | Ast.Gt -> if x > y then 1.0 else 0.0
    | Ast.Ge -> if x >= y then 1.0 else 0.0
    | Ast.Eq -> if x = y then 1.0 else 0.0
    | Ast.Neq -> if x <> y then 1.0 else 0.0
    | _ -> assert false)
  | Ast.Logical (Ast.And, a, b) ->
    let x = reference_eval a in
    if x <> 0.0 then reference_eval b else x
  | Ast.Logical (Ast.Or, a, b) ->
    let x = reference_eval a in
    if x <> 0.0 then x else reference_eval b
  | Ast.Cond (c, t, f) ->
    if reference_eval c <> 0.0 then reference_eval t else reference_eval f
  | _ -> assert false

let gen_expr =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then map (fun i -> mk (Ast.Number (float_of_int i))) (int_range (-20) 20)
        else
          let sub = self (n / 2) in
          oneof
            [
              map (fun i -> mk (Ast.Number (float_of_int i))) (int_range (-20) 20);
              map2
                (fun op (a, b) -> mk (Ast.Binop (op, a, b)))
                (oneofl
                   [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge; Ast.Eq; Ast.Neq ])
                (pair sub sub);
              map (fun x -> mk (Ast.Unop (Ast.Neg, x))) sub;
              map (fun x -> mk (Ast.Unop (Ast.Not, x))) sub;
              map2
                (fun l (a, b) -> mk (Ast.Logical (l, a, b)))
                (oneofl [ Ast.And; Ast.Or ])
                (pair sub sub);
              map (fun (c, (t, f)) -> mk (Ast.Cond (c, t, f))) (pair sub (pair sub sub));
            ]))

let differential_prop =
  QCheck.Test.make ~name:"interpreter agrees with the reference on random expressions"
    ~count:400 (QCheck.make gen_expr)
    (fun e ->
      let source = Pretty.expr e in
      let ctx = Interp.create () in
      Builtins.install ctx;
      let interpreted =
        match Compile.run_string ctx source with
        | Value.Vbool b -> if b then 1.0 else 0.0
        | v -> Value.to_number v
      in
      let expected = reference_eval e in
      interpreted = expected
      ||
      (* booleans surface as 0/1 in the reference; comparisons of
         booleans to numbers coerce identically, so any mismatch is
         real — report it. *)
      QCheck.Test.fail_reportf "source %S: interp %f, reference %f" source interpreted
        expected)

let suite =
  [
    Alcotest.test_case "expression forms" `Quick test_expressions;
    Alcotest.test_case "statement forms" `Quick test_statement_forms;
    Alcotest.test_case "paper scripts reach a fixpoint" `Quick test_paper_scripts_fixpoint;
    Alcotest.test_case "formatting preserves evaluation" `Quick test_semantics_preserved;
    Alcotest.test_case "formatted policies register identically" `Quick
      test_formatted_policies_register_identically;
    Alcotest.test_case "malformed input reported" `Quick test_format_reports_errors;
    QCheck_alcotest.to_alcotest differential_prop;
  ]
