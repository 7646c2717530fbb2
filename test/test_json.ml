(* The JSON codec and its script vocabulary. *)

open Core.Vocab

let parse_ok s =
  match Json.parse s with Ok v -> v | Error e -> Alcotest.failf "parse %S: %s" s e

let test_scalars () =
  Alcotest.(check bool) "null" true (parse_ok "null" = Json.Null);
  Alcotest.(check bool) "true" true (parse_ok "true" = Json.Bool true);
  Alcotest.(check bool) "false" true (parse_ok "false" = Json.Bool false);
  Alcotest.(check bool) "int" true (parse_ok "42" = Json.Num 42.0);
  Alcotest.(check bool) "negative" true (parse_ok "-7" = Json.Num (-7.0));
  Alcotest.(check bool) "float" true (parse_ok "3.25" = Json.Num 3.25);
  Alcotest.(check bool) "exponent" true (parse_ok "1e3" = Json.Num 1000.0);
  Alcotest.(check bool) "string" true (parse_ok "\"hi\"" = Json.Str "hi")

let test_structures () =
  Alcotest.(check bool) "empty array" true (parse_ok "[]" = Json.Arr []);
  Alcotest.(check bool) "array" true
    (parse_ok "[1, 2, 3]" = Json.Arr [ Json.Num 1.0; Json.Num 2.0; Json.Num 3.0 ]);
  Alcotest.(check bool) "empty object" true (parse_ok "{}" = Json.Obj []);
  Alcotest.(check bool) "object" true
    (parse_ok {|{"a": 1, "b": [true, null]}|}
    = Json.Obj
        [ ("a", Json.Num 1.0); ("b", Json.Arr [ Json.Bool true; Json.Null ]) ]);
  Alcotest.(check bool) "nested" true
    (parse_ok {|{"x":{"y":{"z":[{"w":0}]}}}|}
    = parse_ok {| { "x" : { "y" : { "z" : [ { "w" : 0 } ] } } } |})

let test_string_escapes () =
  Alcotest.(check bool) "escapes" true
    (parse_ok {|"a\"b\\c\nd\te"|} = Json.Str "a\"b\\c\nd\te");
  Alcotest.(check bool) "unicode bmp" true (parse_ok {|"A"|} = Json.Str "A");
  Alcotest.(check bool) "unicode two-byte" true (parse_ok {|"é"|} = Json.Str "\xc3\xa9")

let test_errors () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse error for %S" s)
    [ ""; "{"; "[1,"; "{\"a\"}"; "nul"; "\"unterminated"; "[1] trailing"; "{'single':1}" ]

let test_print_roundtrip () =
  List.iter
    (fun s ->
      let v = parse_ok s in
      Alcotest.(check bool) s true (v = parse_ok (Json.print v)))
    [
      "null";
      "[1,2.5,-3]";
      {|{"name":"na kika","nodes":[{"id":1},{"id":2}],"open":true}|};
      {|"with \"quotes\" and \n newlines"|};
    ]

let json_roundtrip_prop =
  (* Generate random Json.t and check print/parse roundtrip. *)
  let gen =
    QCheck.Gen.(
      sized @@ fix (fun self n ->
          if n <= 0 then
            oneof
              [
                return Json.Null;
                map (fun b -> Json.Bool b) bool;
                map (fun i -> Json.Num (float_of_int i)) (int_range (-1000) 1000);
                map
                  (fun s -> Json.Str s)
                  (string_size ~gen:(char_range 'a' 'z') (int_bound 12));
              ]
          else
            oneof
              [
                map (fun items -> Json.Arr items) (list_size (int_bound 4) (self (n / 2)));
                map
                  (fun fields ->
                    Json.Obj (List.mapi (fun i v -> (Printf.sprintf "k%d" i, v)) fields))
                  (list_size (int_bound 4) (self (n / 2)));
              ]))
  in
  QCheck.Test.make ~name:"json: print/parse roundtrip" ~count:200 (QCheck.make gen)
    (fun v -> match Json.parse (Json.print v) with Ok v' -> v = v' | Error _ -> false)

let make_ctx () =
  let ctx = Core.Script.Interp.create () in
  Platform_v.install_all (Hostcall.stub ()) ctx;
  ctx

let run ctx src = Core.Script.Compile.run_string ctx src

let test_vocab_stringify () =
  let ctx = make_ctx () in
  Alcotest.(check string) "object" {|{"a":1,"b":[true,null],"c":"x"}|}
    (Core.Script.Value.to_string (run ctx "JSON.stringify({a: 1, b: [true, null], c: \"x\"})"));
  Alcotest.(check string) "nested function dropped" {|{"f":null}|}
    (Core.Script.Value.to_string (run ctx "JSON.stringify({f: function() { }})"))

let test_vocab_parse () =
  let ctx = make_ctx () in
  Alcotest.(check (float 1e-9)) "field" 7.0
    (Core.Script.Value.to_number (run ctx "JSON.parse(\"{\\\"n\\\": 7}\").n"));
  Alcotest.(check bool) "malformed is null" true
    (run ctx "JSON.parse(\"{broken\")" = Core.Script.Value.Vnull)

let test_vocab_roundtrip_hardstate () =
  (* The intended use: structured values through string-typed hard state. *)
  let ctx = make_ctx () in
  ignore
    (run ctx
       {| var profile = { user: "alice", visits: 3, tags: ["a", "b"] };
          HardState.put("profile", JSON.stringify(profile)); |});
  Alcotest.(check (float 1e-9)) "restored" 3.0
    (Core.Script.Value.to_number (run ctx "JSON.parse(HardState.get(\"profile\")).visits"));
  Alcotest.(check string) "array restored" "a,b"
    (Core.Script.Value.to_string
       (run ctx "JSON.parse(HardState.get(\"profile\")).tags.join(\",\")"))

let suite =
  [
    Alcotest.test_case "scalars" `Quick test_scalars;
    Alcotest.test_case "arrays and objects" `Quick test_structures;
    Alcotest.test_case "string escapes" `Quick test_string_escapes;
    Alcotest.test_case "malformed input" `Quick test_errors;
    Alcotest.test_case "print/parse roundtrip" `Quick test_print_roundtrip;
    QCheck_alcotest.to_alcotest json_roundtrip_prop;
    Alcotest.test_case "vocab: stringify" `Quick test_vocab_stringify;
    Alcotest.test_case "vocab: parse" `Quick test_vocab_parse;
    Alcotest.test_case "vocab: hard-state roundtrip" `Quick test_vocab_roundtrip_hardstate;
  ]
