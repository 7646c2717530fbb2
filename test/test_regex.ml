(* The regex engine: parsing, matching semantics, pathological inputs. *)

open Core.Regex

let matches pattern s = Regex.matches (Regex.compile pattern) ~step:ignore s

(* The whole string matches: the pattern anchored at both ends. *)
let full pattern s = matches ("^(" ^ pattern ^ ")$") s

let test_literals () =
  Alcotest.(check bool) "substring" true (matches "cat" "concatenate");
  Alcotest.(check bool) "missing" false (matches "dog" "concatenate");
  Alcotest.(check bool) "empty pattern matches" true (matches "" "anything");
  Alcotest.(check bool) "full literal" true (full "abc" "abc");
  Alcotest.(check bool) "full mismatch" false (full "abc" "abcd")

let test_any_and_classes () =
  Alcotest.(check bool) "dot" true (full "a.c" "axc");
  Alcotest.(check bool) "dot needs char" false (full "a.c" "ac");
  Alcotest.(check bool) "class" true (full "[abc]+" "cab");
  Alcotest.(check bool) "class negated" true (full "[^0-9]+" "abc");
  Alcotest.(check bool) "class negated rejects" false (full "[^0-9]+" "a1c");
  Alcotest.(check bool) "range" true (full "[a-f0-3]+" "be02");
  Alcotest.(check bool) "literal ] first" true (full "[]]" "]");
  Alcotest.(check bool) "dash at end" true (full "[a-]+" "a-a")

let test_escapes () =
  Alcotest.(check bool) "digit" true (full "\\d+" "12345");
  Alcotest.(check bool) "digit rejects" false (full "\\d+" "12a45");
  Alcotest.(check bool) "word" true (full "\\w+" "foo_Bar9");
  Alcotest.(check bool) "space" true (full "a\\s+b" "a \t b");
  Alcotest.(check bool) "escaped dot" true (full "a\\.b" "a.b");
  Alcotest.(check bool) "escaped dot rejects" false (full "a\\.b" "axb");
  Alcotest.(check bool) "non-digit" true (full "\\D+" "abc")

let test_quantifiers () =
  Alcotest.(check bool) "star zero" true (full "ab*c" "ac");
  Alcotest.(check bool) "star many" true (full "ab*c" "abbbbc");
  Alcotest.(check bool) "plus needs one" false (full "ab+c" "ac");
  Alcotest.(check bool) "plus many" true (full "ab+c" "abbc");
  Alcotest.(check bool) "opt present" true (full "colou?r" "colour");
  Alcotest.(check bool) "opt absent" true (full "colou?r" "color");
  Alcotest.(check bool) "exact bound" true (full "a{3}" "aaa");
  Alcotest.(check bool) "exact bound rejects" false (full "a{3}" "aa");
  Alcotest.(check bool) "range bound" true (full "a{2,4}" "aaa");
  Alcotest.(check bool) "range bound max" false (full "a{2,4}" "aaaaa");
  Alcotest.(check bool) "open bound" true (full "a{2,}" "aaaaaa")

let test_alternation_groups () =
  Alcotest.(check bool) "alt left" true (full "cat|dog" "cat");
  Alcotest.(check bool) "alt right" true (full "cat|dog" "dog");
  Alcotest.(check bool) "group star" true (full "(ab)+" "ababab");
  Alcotest.(check bool) "group star rejects partial" false (full "(ab)+" "aba");
  Alcotest.(check bool) "nested" true (full "a(b(c|d))*e" "abcbde")

let test_anchors () =
  Alcotest.(check bool) "bol" true (matches "^start" "start of line");
  Alcotest.(check bool) "bol rejects" false (matches "^line" "start of line");
  Alcotest.(check bool) "eol" true (matches "line$" "start of line");
  Alcotest.(check bool) "eol rejects" false (matches "start$" "start of line");
  Alcotest.(check bool) "both" true (matches "^exact$" "exact")

let test_find () =
  let r = Regex.compile "o+" in
  Alcotest.(check (option (pair int int))) "leftmost longest-ish" (Some (1, 3))
    (Regex.find r ~step:ignore "foooba" |> Option.map (fun (i, j) -> (i, min j 3)));
  Alcotest.(check (option (pair int int))) "absent" None (Regex.find r ~step:ignore "xyz")

let test_find_all_and_replace () =
  let r = Regex.compile "\\d+" in
  Alcotest.(check (list string)) "three numbers" [ "a"; "b"; "c"; "" ]
    (Regex.split r ~step:ignore "a1b22c333");
  Alcotest.(check string) "replace" "aNbNcN" (Regex.replace r ~step:ignore ~by:"N" "a1b22c333");
  Alcotest.(check string) "replace none" "abc" (Regex.replace r ~step:ignore ~by:"N" "abc")

let test_split () =
  let r = Regex.compile ",\\s*" in
  Alcotest.(check (list string)) "split list" [ "a"; "b"; "c" ] (Regex.split r ~step:ignore "a, b,c");
  Alcotest.(check (list string)) "no separator" [ "abc" ] (Regex.split r ~step:ignore "abc")

let test_parse_errors () =
  List.iter
    (fun pattern ->
      match Regex.compile pattern with
      | exception Regex.Parse_error _ -> ()
      | _ -> Alcotest.failf "expected parse error for %S" pattern)
    [ "("; ")"; "a)"; "[abc"; "*a"; "+"; "a{2"; "a{4,2}"; "\\"; "[z-a]" ]

let test_zero_width_star_terminates () =
  (* Nested empty-repetition patterns must not loop forever. *)
  Alcotest.(check bool) "empty-star" true (matches "(a*)*b" "aaab");
  Alcotest.(check bool) "empty-star no match terminates" false (matches "(a*)*b" "ccc")

let test_backtracking_correctness () =
  Alcotest.(check bool) "needs backtracking" true (full "a*a" "aaa");
  Alcotest.(check bool) "alternation backtrack" true (full "(ab|a)b" "ab");
  Alcotest.(check bool) "greedy star then tail" true (full ".*b" "aaab")

let test_header_patterns () =
  (* The kinds of patterns policies actually use on headers. *)
  Alcotest.(check bool) "user-agent" true
    (matches "Nokia" "Mozilla/4.0 (compatible; Nokia6600)");
  Alcotest.(check bool) "mime" true (matches "^image/(jpeg|gif|png)$" "image/png");
  Alcotest.(check bool) "mime rejects" false (matches "^image/(jpeg|gif|png)$" "text/html")

let find_all_nonoverlapping_prop =
  QCheck.Test.make ~name:"regex: find_all spans are disjoint and ordered" ~count:200
    QCheck.(string_of_size Gen.(0 -- 60))
    (fun s ->
      (* [replace] and [split] slice between consecutive match spans, so
         an overlapping or unordered pair would raise in either. *)
      let r = Regex.compile "ab?" in
      let replaced = Regex.replace r ~step:ignore ~by:"|" s in
      replaced = String.concat "|" (Regex.split r ~step:ignore s)
      && not (String.contains replaced 'a'))

let replace_idempotent_prop =
  QCheck.Test.make ~name:"regex: replacing all digits leaves no digits" ~count:200
    QCheck.(string_of_size Gen.(0 -- 80))
    (fun s ->
      let r = Regex.compile "\\d" in
      let cleaned = Regex.replace r ~step:ignore ~by:"" s in
      not (Regex.matches r ~step:ignore cleaned))

let suite =
  [
    Alcotest.test_case "literals" `Quick test_literals;
    Alcotest.test_case "dot and character classes" `Quick test_any_and_classes;
    Alcotest.test_case "escape classes" `Quick test_escapes;
    Alcotest.test_case "quantifiers" `Quick test_quantifiers;
    Alcotest.test_case "alternation and groups" `Quick test_alternation_groups;
    Alcotest.test_case "anchors" `Quick test_anchors;
    Alcotest.test_case "find" `Quick test_find;
    Alcotest.test_case "find_all and replace" `Quick test_find_all_and_replace;
    Alcotest.test_case "split" `Quick test_split;
    Alcotest.test_case "malformed patterns raise" `Quick test_parse_errors;
    Alcotest.test_case "zero-width repetition terminates" `Quick
      test_zero_width_star_terminates;
    Alcotest.test_case "backtracking correctness" `Quick test_backtracking_correctness;
    Alcotest.test_case "realistic header patterns" `Quick test_header_patterns;
    QCheck_alcotest.to_alcotest find_all_nonoverlapping_prop;
    QCheck_alcotest.to_alcotest replace_idempotent_prop;
  ]
