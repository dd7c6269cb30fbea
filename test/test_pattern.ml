open Whynot
module Ast = Pattern.Ast
module Parse = Pattern.Parse
module Matcher = Pattern.Matcher
module Tuple = Events.Tuple

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let p s = Parse.pattern_exn s

(* --- AST --- *)

let test_constructors_and_size () =
  let q = Ast.seq ~atleast:10 [ Ast.event "A"; Ast.and_ [ Ast.event "B"; Ast.event "C" ] ] in
  check_int "size" 5 (Ast.size q);
  check_int "depth" 3 (Ast.depth q);
  check_int "count_and" 1 (Ast.count_and q);
  check_bool "events" true
    (Events.Event.Set.equal (Ast.events q) (Events.Event.Set.of_list [ "A"; "B"; "C" ]))

let shape =
  Alcotest.testable
    (fun ppf -> function
      | Ast.Simple -> Format.fprintf ppf "Simple"
      | Ast.And_no_seq_inside -> Format.fprintf ppf "And_no_seq_inside"
      | Ast.General -> Format.fprintf ppf "General")
    ( = )

let test_classify () =
  Alcotest.check shape "single event" Ast.Simple (Ast.classify (p "E1"));
  Alcotest.check shape "seq only" Ast.Simple (Ast.classify (p "SEQ(E1, SEQ(E2, E3))"));
  Alcotest.check shape "flat and" Ast.And_no_seq_inside (Ast.classify (p "AND(E1, E2)"));
  Alcotest.check shape "and of events under seq" Ast.And_no_seq_inside
    (Ast.classify (p "SEQ(E1, AND(E2, E3))"));
  Alcotest.check shape "seq inside and" Ast.General
    (Ast.classify (p "AND(SEQ(E1, E2), E3)"));
  Alcotest.check shape "deep seq inside and" Ast.General
    (Ast.classify (p "SEQ(AND(E0, AND(E1, SEQ(E2, E3))), E4)"));
  Alcotest.check shape "set join takes worst" Ast.General
    (Ast.classify_set [ p "SEQ(E1, E2)"; p "AND(SEQ(E3, E4), E5)" ]);
  Alcotest.check shape "empty set is simple" Ast.Simple (Ast.classify_set [])

let test_validate () =
  check_bool "valid" true (Result.is_ok (Ast.validate (p "SEQ(E1, E2) ATLEAST 1 WITHIN 2")));
  check_bool "inverted window" true
    (Ast.validate (Ast.seq ~atleast:5 ~within:2 [ Ast.event "A"; Ast.event "B" ])
    = Error (Ast.Inverted_window (5, 2)));
  check_bool "duplicate event" true
    (Ast.validate (Ast.seq [ Ast.event "A"; Ast.event "A" ])
    = Error (Ast.Duplicate_event "A"));
  check_bool "empty composition" true
    (Ast.validate (Ast.seq []) = Error Ast.Empty_composition);
  check_bool "negative bound" true
    (Ast.validate (Ast.seq ~atleast:(-1) [ Ast.event "A"; Ast.event "B" ])
    = Error (Ast.Negative_bound (-1)));
  check_bool "duplicate across set is fine" true
    (Result.is_ok (Ast.validate_set [ p "SEQ(E1, E2)"; p "AND(E1, E3)" ]))

(* --- Parser --- *)

let test_parse_basics () =
  check_bool "single event" true (p "E1" = Ast.event "E1");
  check_bool "keywords case-insensitive" true
    (p "seq(E1, E2) atleast 3 within 5" = Ast.seq ~atleast:3 ~within:5 [ Ast.event "E1"; Ast.event "E2" ]);
  check_bool "units hours" true
    (p "SEQ(E1, E2) ATLEAST 2 hours" = Ast.seq ~atleast:120 [ Ast.event "E1"; Ast.event "E2" ]);
  check_bool "units minutes" true
    (p "SEQ(E1, E2) WITHIN 30 minutes" = Ast.seq ~within:30 [ Ast.event "E1"; Ast.event "E2" ]);
  check_bool "units days" true
    (p "SEQ(E1, E2) WITHIN 2 d" = Ast.seq ~within:2880 [ Ast.event "E1"; Ast.event "E2" ]);
  check_bool "window order free" true
    (p "SEQ(E1, E2) WITHIN 5 ATLEAST 3" = p "SEQ(E1, E2) ATLEAST 3 WITHIN 5")

let test_parse_errors () =
  let fails s = check_bool s true (Result.is_error (Parse.pattern s)) in
  fails "SEQ(E1,)";
  fails "SEQ()";
  fails "SEQ(E1";
  fails "E1 E2";
  fails "SEQ(E1, E2) ATLEAST 5 ATLEAST 6";
  fails "SEQ(E1, E2) ATLEAST 9 WITHIN 3" (* inverted window caught by validate *);
  fails "SEQ(E1, E1)" (* duplicate event *);
  fails "WITHIN 3";
  fails "SEQ(E1, E2) ATLEAST x";
  fails "@#!";
  fails ""

let contains msg needle =
  let nl = String.length needle and ml = String.length msg in
  let rec go i = i + nl <= ml && (String.sub msg i nl = needle || go (i + 1)) in
  go 0

let test_parse_error_positions () =
  let check_has name needle = function
    | Ok _ -> Alcotest.failf "%s: expected a parse error" name
    | Error msg ->
        check_bool (Printf.sprintf "%s: %S in %S" name needle msg) true
          (contains msg needle)
  in
  (* failure on line 3 of a multi-line pattern set *)
  let input = "SEQ(E1, E2);\nAND(E3, E4) WITHIN 9;\nSEQ(E5,)" in
  check_has "line of failure" "line 3" (Parse.pattern_set input);
  check_has "column of failure" "column 8" (Parse.pattern_set input);
  check_has "single-line position" "line 1, column 5" (Parse.pattern "SEQ(,E1)");
  (* an oversized integer literal is a parse error, not an escaping Failure *)
  check_has "huge duration literal" "out of range"
    (Parse.pattern "SEQ(E1, E2) WITHIN 99999999999999999999")

let test_parse_set () =
  match Parse.pattern_set "SEQ(E1, E2); AND(E3, E4) WITHIN 9" with
  | Ok [ a; b ] ->
      check_bool "first" true (a = p "SEQ(E1, E2)");
      check_bool "second" true (b = p "AND(E3, E4) WITHIN 9")
  | Ok _ -> Alcotest.fail "wrong arity"
  | Error e -> Alcotest.fail e

let prop_roundtrip =
  QCheck.Test.make ~name:"print/parse round trip" ~count:300 (Gen.pattern ())
    (fun pat ->
      match Parse.pattern (Ast.to_string pat) with
      | Ok pat' -> Ast.equal pat pat'
      | Error e -> QCheck.Test.fail_reportf "re-parse failed: %s" e)

let prop_validate_generated =
  QCheck.Test.make ~name:"generated patterns are valid" ~count:300 (Gen.pattern ())
    (fun pat -> Result.is_ok (Ast.validate pat))

(* [Ast.validate] as it was, one [Event.Set] from the first event on,
   threaded through a [Result] per node: the reference the
   list-then-set check is compared against. *)
let reference_validate p =
  let ( let* ) = Result.bind in
  let check_window { Ast.atleast; within } =
    let check_bound = function
      | Some a when a < 0 -> Error (Ast.Negative_bound a)
      | Some a when a > Events.Time.max_span -> Error (Ast.Bound_above_limit a)
      | _ -> Ok ()
    in
    let* () = check_bound atleast in
    let* () = check_bound within in
    match (atleast, within) with
    | Some a, Some b when a > b -> Error (Ast.Inverted_window (a, b))
    | _ -> Ok ()
  in
  let rec go seen = function
    | Ast.Event e ->
        if Events.Event.Set.mem e seen then Error (Ast.Duplicate_event e)
        else Ok (Events.Event.Set.add e seen)
    | Ast.Seq (ps, w) | Ast.And (ps, w) ->
        let* () = check_window w in
        if ps = [] then Error Ast.Empty_composition
        else
          List.fold_left
            (fun acc p ->
              let* seen = acc in
              go seen p)
            (Ok seen) ps
  in
  Result.map (fun (_ : Events.Event.Set.t) -> ()) (go Events.Event.Set.empty p)

(* Patterns of a few to a few hundred events, named from pools of 10, 60
   or 5000 names, so duplicates come early, late (past the list's 16
   events) or not at all; now and then an empty composition or a bad
   window. *)
let validate_case =
  let open QCheck.Gen in
  let bound =
    frequency
      [
        (6, return None);
        (6, map Option.some (int_range 0 50));
        (1, return (Some (-1)));
        (1, return (Some (Events.Time.max_span + 1)));
      ]
  in
  let window = map2 (fun atleast within -> { Ast.atleast; within }) bound bound in
  let tree pool =
    fix
      (fun self depth ->
        let leaf = map (fun i -> Ast.Event (Printf.sprintf "E%d" i)) (int_bound (pool - 1)) in
        if depth = 0 then leaf
        else
          let node mk =
            map2 (fun ps w -> mk ps w)
              (frequency
                 [ (1, return []); (30, list_size (int_range 1 8) (self (depth - 1))) ])
              window
          in
          frequency
            [
              (1, leaf);
              (3, node (fun ps w -> Ast.Seq (ps, w)));
              (2, node (fun ps w -> Ast.And (ps, w)));
            ])
      3
  in
  oneofl [ 10; 60; 5000 ] >>= tree

let prop_validate_reference =
  QCheck.Test.make ~name:"validate = the set-based reference" ~count:1000
    (QCheck.make ~print:Ast.to_string validate_case)
    (fun pat -> Ast.validate pat = reference_validate pat)

let test_validate_many_events () =
  let events n = List.init n (fun i -> Ast.event (Printf.sprintf "E%d" i)) in
  check_bool "40 distinct events" true
    (Result.is_ok (Ast.validate (Ast.seq (events 40))));
  check_bool "the 18th event repeats the 3rd" true
    (Ast.validate (Ast.seq (events 17 @ [ Ast.event "E2" ]))
    = Error (Ast.Duplicate_event "E2"));
  check_bool "the 17th event repeats the 1st" true
    (Ast.validate (Ast.seq (events 16 @ [ Ast.event "E0" ]))
    = Error (Ast.Duplicate_event "E0"));
  check_bool "the 17th event repeats the 16th" true
    (Ast.validate (Ast.seq (events 16 @ [ Ast.event "E15" ]))
    = Error (Ast.Duplicate_event "E15"));
  check_bool "the 16th event repeats the 15th" true
    (Ast.validate (Ast.seq (events 15 @ [ Ast.event "E14" ]))
    = Error (Ast.Duplicate_event "E14"));
  check_bool "REPEAT of 5000" true
    (Result.is_ok (Ast.validate (p "SEQ(REPEAT(E, 5000), F)")))

(* --- Matcher --- *)

let test_match_event () =
  let t = Tuple.of_list [ ("E1", 5) ] in
  check_bool "present" true (Matcher.matches t (p "E1"));
  check_bool "missing" false (Matcher.matches t (p "E2"))

let test_match_seq () =
  let q = p "SEQ(E1, E2, E3)" in
  check_bool "ordered" true
    (Matcher.matches (Tuple.of_list [ ("E1", 1); ("E2", 2); ("E3", 3) ]) q);
  check_bool "equal timestamps allowed" true
    (Matcher.matches (Tuple.of_list [ ("E1", 2); ("E2", 2); ("E3", 2) ]) q);
  check_bool "out of order" false
    (Matcher.matches (Tuple.of_list [ ("E1", 1); ("E2", 5); ("E3", 3) ]) q)

let test_match_seq_window () =
  let q = p "SEQ(E1, E2) ATLEAST 10 WITHIN 20" in
  let t d = Tuple.of_list [ ("E1", 100); ("E2", 100 + d) ] in
  check_bool "below atleast" false (Matcher.matches (t 9) q);
  check_bool "at atleast" true (Matcher.matches (t 10) q);
  check_bool "inside" true (Matcher.matches (t 15) q);
  check_bool "at within" true (Matcher.matches (t 20) q);
  check_bool "above within" false (Matcher.matches (t 21) q)

let test_match_and () =
  let q = p "AND(E1, E2) WITHIN 30" in
  check_bool "either order ok (E1 first)" true
    (Matcher.matches (Tuple.of_list [ ("E1", 10); ("E2", 35) ]) q);
  check_bool "either order ok (E2 first)" true
    (Matcher.matches (Tuple.of_list [ ("E1", 35); ("E2", 10) ]) q);
  check_bool "too far apart" false
    (Matcher.matches (Tuple.of_list [ ("E1", 10); ("E2", 41) ]) q)

let test_match_nested () =
  (* The paper's p0: overlap of two transfers with >= 2h span. *)
  let q = p "SEQ(AND(E1, E3) WITHIN 30, AND(E2, E4) WITHIN 30) ATLEAST 120" in
  let t = Tuple.of_list [ ("E1", 1028); ("E2", 1138); ("E3", 1045); ("E4", 1153) ] in
  check_bool "matches" true (Matcher.matches t q);
  (* E3 after E2 starts the second AND before the first ends: SEQ broken. *)
  let t_bad = Tuple.add "E3" 1140 t in
  check_bool "overlap violation" false (Matcher.matches t_bad q)

let test_match_failure_reporting () =
  let q = p "SEQ(E1, E2) WITHIN 5" in
  (match Matcher.span (Tuple.of_list [ ("E1", 0) ]) q with
  | Error (Matcher.Missing_event "E2") -> ()
  | _ -> Alcotest.fail "expected Missing_event E2");
  (match Matcher.span (Tuple.of_list [ ("E1", 9); ("E2", 3) ]) q with
  | Error (Matcher.Order_violation _) -> ()
  | _ -> Alcotest.fail "expected Order_violation");
  (match Matcher.span (Tuple.of_list [ ("E1", 0); ("E2", 9) ]) q with
  | Error (Matcher.Window_violation _) -> ()
  | _ -> Alcotest.fail "expected Window_violation");
  check_bool "explain_failure none on match" true
    (Matcher.explain_failure (Tuple.of_list [ ("E1", 0); ("E2", 3) ]) [ q ] = None)

let test_match_set () =
  let ps = [ p "SEQ(E1, E2)"; p "AND(E2, E3) WITHIN 4" ] in
  check_bool "all match" true
    (Matcher.matches_set (Tuple.of_list [ ("E1", 0); ("E2", 5); ("E3", 3) ]) ps);
  check_bool "one fails" false
    (Matcher.matches_set (Tuple.of_list [ ("E1", 0); ("E2", 5); ("E3", 0) ]) ps)

(* matching is invariant under time shift *)
let prop_shift_invariance =
  QCheck.Test.make ~name:"matching invariant under time shift" ~count:300
    (Gen.pattern_and_tuple ()) (fun (pat, t) ->
      let shifted = Tuple.map (fun _ ts -> ts + 37) t in
      Matcher.matches t pat = Matcher.matches shifted pat)

let qt = Gen.qt

(* One malformed input per [fail] site of the parser, plus valid and
   multi-line ones, with the exact result each gives: the message (line,
   column and offset included) or the pattern it prints as. *)
let pinned_parses =
  [
    (`Pattern, "SEQ(A, B) WITHIN 99999999999999999999",
     "ERR parse error at line 1, column 18 (offset 17): integer literal out of range: 99999999999999999999");
    (`Pattern, "SEQ(A, $)",
     "ERR parse error at line 1, column 8 (offset 7): unexpected character '$'");
    (`Pattern, "SEQ A, B)",
     "ERR parse error at line 1, column 5 (offset 4): expected '(' but found identifier \"A\"");
    (`Pattern, "SEQ(A, B) WITHIN 4611686018427387903 hours",
     "ERR parse error at line 1, column 18 (offset 17): duration out of range: 4611686018427387903 hours");
    (`Pattern, "SEQ(A, B) WITHIN x",
     "ERR parse error at line 1, column 18 (offset 17): expected a duration but found identifier \"x\"");
    (`Pattern, "SEQ(A, B) ATLEAST 1 ATLEAST 2",
     "ERR parse error at line 1, column 21 (offset 20): duplicate ATLEAST");
    (`Pattern, "SEQ(A, B) WITHIN 1 WITHIN 2",
     "ERR parse error at line 1, column 20 (offset 19): duplicate WITHIN");
    (`Pattern, "REPEAT(3, 2)",
     "ERR parse error at line 1, column 8 (offset 7): REPEAT needs an event type, found number 3");
    (`Pattern, "REPEAT(A, 0)",
     "ERR parse error at line 1, column 11 (offset 10): REPEAT count must be >= 1, found 0");
    (`Pattern, "REPEAT(A, B)",
     "ERR parse error at line 1, column 11 (offset 10): REPEAT needs a count, found identifier \"B\"");
    (`Pattern, "REPEAT(A, 2,",
     "ERR parse error at line 1, column 7 (offset 6): expected ')' closing REPEAT");
    (`Pattern, "SEQ(,)",
     "ERR parse error at line 1, column 5 (offset 4): expected a pattern but found ','");
    (`Pattern, "SEQ(A B)",
     "ERR parse error at line 1, column 7 (offset 6): expected ',' or ')' but found identifier \"B\"");
    (`Pattern, "A B",
     "ERR parse error at line 1, column 3 (offset 2): expected end of input but found identifier \"B\"");
    (`Pattern, "SEQ(A B) $",
     "ERR parse error at line 1, column 10 (offset 9): unexpected character '$'");
    (`Pattern, "SEQ(A,\n  B $)",
     "ERR parse error at line 2, column 5 (offset 11): unexpected character '$'");
    (`Pattern, "SEQ(A,\n\n   AND(B, C) WITHIN 5,\n  D E)",
     "ERR parse error at line 4, column 5 (offset 35): expected ',' or ')' but found identifier \"E\"");
    (`Pattern, "SEQ(A, A)",
     "ERR invalid pattern: event A occurs twice in one pattern");
    (`Pattern, "SEQ(A, B) ATLEAST 5 WITHIN 3",
     "ERR invalid pattern: ATLEAST 5 WITHIN 3 requires 5 <= 3");
    (`Pattern, "SEQ(A, B) WITHIN 1152921504606846975",
     "ERR invalid pattern: window bound 1152921504606846975 exceeds the limit 1152921504606846974");
    (`Pattern, "SEQ(A, B) ATLEAST 2 hours WITHIN 1 d",
     "OK SEQ(A, B) ATLEAST 120 WITHIN 1440");
    (`Pattern, "seq(a, And(b-1, c.2) within 5 Hours) atleast 3 MIN",
     "OK SEQ(a, AND(b-1, c.2) WITHIN 300) ATLEAST 3");
    (`Pattern, "REPEAT(E, 3) WITHIN 10",
     "OK SEQ(E#1_1, E#1_2, E#1_3) WITHIN 10");
    (`Pattern, "",
     "ERR parse error at line 1, column 1 (offset 0): expected a pattern but found end of input");
    (`Pattern, "SEQ(A, B) WITHIN 00000000000000000000000000000007",
     "OK SEQ(A, B) WITHIN 7");
    (`Pattern, "SEQ(A, B) WITHIN 4611686018427387903",
     "ERR invalid pattern: window bound 4611686018427387903 exceeds the limit 1152921504606846974");
    (`Pattern, "SEQ(A, B) WITHIN 4611686018427387904",
     "ERR parse error at line 1, column 18 (offset 17): integer literal out of range: 4611686018427387904");
    (`Pattern, "AND(SEQ(A, B), SEQ(C, A))",
     "ERR invalid pattern: event A occurs twice in one pattern");
    (`Pattern, "SEQ(A, B) WITHIN 5 minutes ATLEAST",
     "ERR parse error at line 1, column 35 (offset 34): expected a duration but found end of input");
    (`Pattern, "SEQ(A, B)) ",
     "ERR parse error at line 1, column 10 (offset 9): expected end of input but found ')'");
    (`Pattern, "SEQ(A, B); C",
     "ERR parse error at line 1, column 10 (offset 9): expected end of input but found ';'");
    (`Set, "SEQ(A, B) C",
     "ERR parse error at line 1, column 11 (offset 10): expected ';' or end of input but found identifier \"C\"");
    (`Set, "SEQ(A, B); AND(C, D) WITHIN 3;",
     "OK SEQ(A, B); AND(C, D) WITHIN 3");
    (`Set, "A;;B",
     "ERR parse error at line 1, column 3 (offset 2): expected a pattern but found ';'");
    (`Set, "A; B; SEQ(C, C)",
     "ERR invalid pattern: event C occurs twice in one pattern");
    (`Set, "SEQ(E1, E2) WITHIN 20",
     "OK SEQ(E1, E2) WITHIN 20");
    (`Set, "SEQ(A, B) WITHIN 5 ATLEAST 6; C",
     "ERR invalid pattern: ATLEAST 6 WITHIN 5 requires 6 <= 5");
    (`Set, "A; $",
     "ERR parse error at line 1, column 4 (offset 3): unexpected character '$'");
    (`Set, ";",
     "ERR parse error at line 1, column 1 (offset 0): expected a pattern but found ';'");
    (`Set, "A;\nB\n;C",
     "OK A; B; C");
  ]

let test_parse_messages_pinned () =
  List.iter
    (fun (kind, input, expected) ->
      let got =
        match kind with
        | `Pattern -> (
            match Parse.pattern input with
            | Ok p -> "OK " ^ Ast.to_string p
            | Error m -> "ERR " ^ m)
        | `Set -> (
            match Parse.pattern_set input with
            | Ok ps -> "OK " ^ String.concat "; " (List.map Ast.to_string ps)
            | Error m -> "ERR " ^ m)
      in
      Alcotest.(check string) input expected got)
    pinned_parses

let suite =
  ( "pattern",
    [
      Alcotest.test_case "constructors/size/depth" `Quick test_constructors_and_size;
      Alcotest.test_case "classification (Table 2)" `Quick test_classify;
      Alcotest.test_case "validation" `Quick test_validate;
      Alcotest.test_case "parse basics" `Quick test_parse_basics;
      Alcotest.test_case "parse errors" `Quick test_parse_errors;
      Alcotest.test_case "parse error positions" `Quick test_parse_error_positions;
      Alcotest.test_case "parse pattern set" `Quick test_parse_set;
      Alcotest.test_case "parse messages pinned" `Quick
        test_parse_messages_pinned;
      qt prop_roundtrip;
      qt prop_validate_generated;
      qt prop_validate_reference;
      Alcotest.test_case "validation past 16 events" `Quick
        test_validate_many_events;
      Alcotest.test_case "match single event" `Quick test_match_event;
      Alcotest.test_case "match SEQ order" `Quick test_match_seq;
      Alcotest.test_case "match SEQ window" `Quick test_match_seq_window;
      Alcotest.test_case "match AND any order" `Quick test_match_and;
      Alcotest.test_case "match nested (paper p0)" `Quick test_match_nested;
      Alcotest.test_case "failure reporting" `Quick test_match_failure_reporting;
      Alcotest.test_case "match pattern set" `Quick test_match_set;
      qt prop_shift_invariance;
    ] )
