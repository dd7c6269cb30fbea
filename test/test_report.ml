open Whynot
module Json = Report.Json
module Render = Report.Render
module Tuple = Events.Tuple

let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let p = Pattern.Parse.pattern_exn

let test_to_string_basics () =
  check_str "null" "null" (Json.to_string Json.Null);
  check_str "bool" "true" (Json.to_string (Json.Bool true));
  check_str "int" "-42" (Json.to_string (Json.Int (-42)));
  check_str "float" "1.5" (Json.to_string (Json.Float 1.5));
  check_str "integral float keeps decimal" "3.0" (Json.to_string (Json.Float 3.0));
  check_str "string escaped" "\"a\\\"b\\nc\"" (Json.to_string (Json.String "a\"b\nc"));
  check_str "list" "[1,2]" (Json.to_string (Json.List [ Json.Int 1; Json.Int 2 ]));
  check_str "obj" "{\"a\":1}" (Json.to_string (Json.Obj [ ("a", Json.Int 1) ]));
  check_str "empty containers" "[{},[]]"
    (Json.to_string (Json.List [ Json.Obj []; Json.List [] ]))

let test_pretty_print () =
  let v = Json.Obj [ ("a", Json.List [ Json.Int 1 ]) ] in
  check_str "indented" "{\n  \"a\": [\n    1\n  ]\n}" (Json.to_string ~indent:2 v)

let test_parse_basics () =
  check_bool "null" true (Json.of_string "null" = Ok Json.Null);
  check_bool "ints" true (Json.of_string "[1, -2, 30]"
                          = Ok (Json.List [ Json.Int 1; Json.Int (-2); Json.Int 30 ]));
  check_bool "float" true (Json.of_string "1.25" = Ok (Json.Float 1.25));
  check_bool "nested" true
    (Json.of_string "{\"a\": {\"b\": [true, false, null]}}"
    = Ok
        (Json.Obj
           [ ("a", Json.Obj [ ("b", Json.List [ Json.Bool true; Json.Bool false; Json.Null ]) ]) ]));
  check_bool "string escapes" true
    (Json.of_string "\"a\\nb\"" = Ok (Json.String "a\nb"))

let test_parse_errors () =
  let fails s = check_bool s true (Result.is_error (Json.of_string s)) in
  fails "";
  fails "{";
  fails "[1,]";
  fails "{\"a\" 1}";
  fails "\"unterminated";
  fails "tru";
  fails "1 2"

let test_accessors () =
  let v = Json.Obj [ ("n", Json.Int 5); ("s", Json.String "x") ] in
  check_bool "member" true (Json.member "n" v = Some (Json.Int 5));
  check_bool "member missing" true (Json.member "z" v = None);
  check_bool "to_int" true (Json.to_int (Json.Int 3) = Some 3);
  check_bool "to_float of int" true (Json.to_float (Json.Int 3) = Some 3.0);
  check_bool "to_string_opt" true (Json.to_string_opt (Json.String "q") = Some "q");
  check_bool "to_bool" true (Json.to_bool (Json.Bool false) = Some false);
  check_bool "to_list" true (Json.to_list (Json.List []) = Some [])

(* Round trip: serialize then parse gives the same value. *)
let json_gen : Json.t QCheck.Gen.t =
  let open QCheck.Gen in
  sized (fun size ->
      fix
        (fun self size ->
          if size <= 1 then
            oneof
              [
                return Json.Null;
                map (fun b -> Json.Bool b) bool;
                map (fun n -> Json.Int n) (int_range (-1000) 1000);
                map (fun s -> Json.String s) (string_size ~gen:printable (return 5));
              ]
          else
            oneof
              [
                map (fun l -> Json.List l) (list_size (return 3) (self (size / 2)));
                map
                  (fun l -> Json.Obj (List.mapi (fun i v -> ("k" ^ string_of_int i, v)) l))
                  (list_size (return 3) (self (size / 2)));
              ])
        (min size 16))

let prop_roundtrip =
  QCheck.Test.make ~name:"json print/parse round trip" ~count:300
    (QCheck.make ~print:Json.to_string json_gen) (fun v ->
      Json.of_string (Json.to_string v) = Ok v
      && Json.of_string (Json.to_string ~indent:2 v) = Ok v)

(* --- renderings --- *)

let p0 = p "SEQ(AND(E1, E3) WITHIN 30, AND(E2, E4) WITHIN 30) ATLEAST 120"
let t2 = Tuple.of_list [ ("E1", 1026); ("E2", 1134); ("E3", 1044); ("E4", 1208) ]

let test_render_modification () =
  let r = Option.get (Explain.Modification.explain [ p0 ] t2) in
  let v = Render.modification ~original:t2 r in
  check_bool "cost field" true (Json.member "cost" v = Some (Json.Int 44));
  check_bool "valid json" true (Result.is_ok (Json.of_string (Json.to_string v)))

let test_render_pipeline_routes () =
  let outcome = Explain.Pipeline.explain [ p0 ] t2 in
  let v = Render.pipeline ~original:t2 outcome in
  check_bool "outcome tagged" true
    (Json.member "outcome" v = Some (Json.String "modify_timestamps"));
  let inconsistent =
    Explain.Pipeline.explain
      [ p "SEQ(AND(E1, E3) ATLEAST 30, AND(E2, E4) ATLEAST 30) WITHIN 45" ]
      t2
  in
  check_bool "inconsistent tagged" true
    (Json.member "outcome" (Render.pipeline ~original:t2 inconsistent)
    = Some (Json.String "inconsistent_query"))

let test_render_tuple_hides_artificial () =
  let t = Tuple.add (Events.Event.artificial_start 0) 7 t2 in
  match Render.tuple t with
  | Json.Obj fields -> check_bool "four fields" true (List.length fields = 4)
  | _ -> Alcotest.fail "expected object"

let test_render_diagnose () =
  let trace = Events.Trace.of_list [ ("x", t2) ] in
  let d = Explain.Diagnose.run [ p0 ] trace in
  let v = Render.diagnose d in
  check_bool "total" true (Json.member "total" v = Some (Json.Int 1));
  check_bool "reparses" true (Result.is_ok (Json.of_string (Json.to_string ~indent:2 v)))

let suite =
  ( "report",
    [
      Alcotest.test_case "serialize basics" `Quick test_to_string_basics;
      Alcotest.test_case "pretty print" `Quick test_pretty_print;
      Alcotest.test_case "parse basics" `Quick test_parse_basics;
      Alcotest.test_case "parse errors" `Quick test_parse_errors;
      Alcotest.test_case "accessors" `Quick test_accessors;
      Gen.qt prop_roundtrip;
      Alcotest.test_case "render modification" `Quick test_render_modification;
      Alcotest.test_case "render pipeline routes" `Quick test_render_pipeline_routes;
      Alcotest.test_case "render hides artificial events" `Quick
        test_render_tuple_hides_artificial;
      Alcotest.test_case "render diagnose" `Quick test_render_diagnose;
    ] )
