open Whynot
module P = Report.Prom_text

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let test_mangle () =
  check_str "dots become underscores" "whynot_detector_matches"
    (P.mangle "detector.matches");
  check_str "namespace suppressible" "detector_matches"
    (P.mangle ~namespace:"" "detector.matches");
  check_str "custom namespace" "acme_a_b" (P.mangle ~namespace:"acme" "a.b");
  check_str "hostile characters collapse to underscores" "whynot_a_b_c_d"
    (P.mangle "a-b c{d");
  check_str "already-clean name keeps shape" "whynot_log_lines"
    (P.mangle "log.lines")

(* The mangling is many-to-one in general ("a.b" and "a_b" collide), so
   injectivity is a property of the catalog we actually register, checked
   here over the fully materialized registry. *)
let test_mangle_injective_on_catalog () =
  let p0 = Pattern.Parse.pattern_exn "SEQ(A, B) WITHIN 20" in
  let t = Events.Tuple.of_list [ ("A", 0); ("B", 50) ] in
  ignore (Explain.Pipeline.explain [ p0 ] t);
  ignore (Cep.Bulk.explain_trace [ p0 ] (Events.Trace.of_list [ ("t0", t) ]));
  let detector = Cep.Detector.create [ p0 ] in
  ignore
    (Cep.Detector.feed detector
       { Cep.Detector.event = "A"; timestamp = 0; tag = "x" });
  let stream = Cep.Stream.create [ p0 ] in
  ignore (Cep.Stream.feed stream ~key:"k" "A" 0);
  let service = Serve.Service.create [ p0 ] in
  ignore (Serve.Service.metrics_body service);
  let snap = Obs.snapshot () in
  let names =
    List.map fst snap.Obs.counters
    @ List.map fst snap.Obs.gauges
    @ List.map fst snap.Obs.histograms
    @ List.map fst snap.Obs.spans
  in
  let mangled = List.map P.mangle names in
  let distinct = List.sort_uniq String.compare mangled in
  check_int "no two catalog names collide after mangling"
    (List.length mangled) (List.length distinct)

let test_escape_help () =
  check_str "backslash doubled" "a\\\\b" (P.escape_help "a\\b");
  check_str "newline escaped" "line one\\nline two"
    (P.escape_help "line one\nline two");
  check_str "plain text untouched" "events fed" (P.escape_help "events fed")

let fixed_snapshot =
  {
    Obs.counters = [ ("fix.errors", 0); ("fix.lines", 12) ];
    gauges = [ ("fix.live", 7) ];
    histograms =
      [
        ( "fix.latency",
          {
            Obs.h_count = 6;
            h_sum = 91;
            h_buckets =
              [ (Some 10, 2); (Some 50, 3); (Some 100, 0); (None, 1) ];
          } );
      ];
    spans = [ ("fix.span", { Obs.s_count = 2; total_ns = 3_000_000; max_ns = 2_000_000 }) ];
  }

let rendered_lines ?help ?(timers = false) () =
  String.split_on_char '\n' (P.render ?help ~timers fixed_snapshot)

let find_sample lines key =
  List.find_map
    (fun line ->
      if String.starts_with ~prefix:(key ^ " ") line then
        Some
          (float_of_string
             (String.sub line
                (String.length key + 1)
                (String.length line - String.length key - 1)))
      else None)
    lines

let test_bucket_cumulativity () =
  let lines = rendered_lines () in
  let bucket le =
    match
      find_sample lines (Printf.sprintf "whynot_fix_latency_bucket{le=\"%s\"}" le)
    with
    | Some v -> int_of_float v
    | None -> Alcotest.failf "bucket le=%s missing" le
  in
  (* per-bin counts 2,3,0,1 must render as running totals *)
  check_int "first bucket" 2 (bucket "10");
  check_int "second bucket accumulates" 5 (bucket "50");
  check_int "empty bin keeps the running total" 5 (bucket "100");
  check_int "+Inf bucket is the grand total" 6 (bucket "+Inf");
  check_int "+Inf equals _count" 6
    (match find_sample lines "whynot_fix_latency_count" with
    | Some v -> int_of_float v
    | None -> Alcotest.fail "_count missing");
  check_int "_sum preserved" 91
    (match find_sample lines "whynot_fix_latency_sum" with
    | Some v -> int_of_float v
    | None -> Alcotest.fail "_sum missing")

let test_help_and_type_lines () =
  let help name =
    if String.equal name "fix.lines" then Some "lines ingested\nso far"
    else None
  in
  let text = P.render ~help ~timers:false fixed_snapshot in
  check_bool "custom HELP escaped inline" true
    (List.mem "# HELP whynot_fix_lines lines ingested\\nso far"
       (String.split_on_char '\n' text));
  check_bool "default HELP is the dotted source name" true
    (List.mem "# HELP whynot_fix_live fix.live" (String.split_on_char '\n' text));
  check_bool "counter TYPE line" true
    (List.mem "# TYPE whynot_fix_lines counter" (String.split_on_char '\n' text));
  check_bool "histogram TYPE line" true
    (List.mem "# TYPE whynot_fix_latency histogram"
       (String.split_on_char '\n' text))

let test_timers_toggle () =
  let without = P.render ~timers:false fixed_snapshot in
  let with_ = P.render fixed_snapshot in
  check_bool "span summary omitted without timers" false
    (List.exists
       (fun l -> String.starts_with ~prefix:"whynot_fix_span_seconds" l)
       (String.split_on_char '\n' without));
  let lines = String.split_on_char '\n' with_ in
  check_bool "span count surfaces" true
    (match find_sample lines "whynot_fix_span_seconds_count" with
    | Some v -> int_of_float v = 2
    | None -> false);
  check_bool "span sum in seconds" true
    (match find_sample lines "whynot_fix_span_seconds_sum" with
    | Some v -> Float.abs (v -. 0.003) < 1e-9
    | None -> false);
  check_bool "max gauge in seconds" true
    (match find_sample lines "whynot_fix_span_max_seconds" with
    | Some v -> Float.abs (v -. 0.002) < 1e-9
    | None -> false)

let test_parse_values_round_trip () =
  let text = P.render fixed_snapshot in
  match P.parse_values text with
  | Error msg -> Alcotest.failf "rendered exposition did not parse: %s" msg
  | Ok samples ->
      let find key =
        List.find_map
          (fun (k, v) -> if String.equal k key then Some v else None)
          samples
      in
      check_bool "counter sample" true
        (find "whynot_fix_lines" = Some 12.0);
      check_bool "labelled bucket keyed verbatim" true
        (find "whynot_fix_latency_bucket{le=\"50\"}" = Some 5.0);
      check_bool "zero-valued counter still sampled" true
        (find "whynot_fix_errors" = Some 0.0);
      check_bool "malformed line rejected" true
        (match P.parse_values "whynot_good 1\nnot-a-sample\n" with
        | Error _ -> true
        | Ok _ -> false);
      check_bool "comments and blanks skipped" true
        (match P.parse_values "# HELP x y\n\nwhynot_x 4\n" with
        | Ok [ ("whynot_x", 4.0) ] -> true
        | _ -> false)

let test_help_of_markdown () =
  let docs =
    "### Serving\n\n\
     | metric | kind | meaning |\n\
     |---|---|---|\n\
     | `serve.requests` | counter | HTTP requests accepted |\n\
     | `serve.errors` | counter | responses with status >= 400 |\n"
  in
  check_bool "meaning column extracted" true
    (P.help_of_markdown docs "serve.requests"
    = Some "HTTP requests accepted");
  check_bool "second row reachable" true
    (P.help_of_markdown docs "serve.errors"
    = Some "responses with status >= 400");
  check_bool "unknown name is None" true
    (P.help_of_markdown docs "serve.nosuch" = None);
  check_bool "separator row never matches" true
    (P.help_of_markdown docs "---" = None);
  (* one closure serves every lookup of a scrape: a later duplicate row
     never replaces the first, and a row whose meaning cell is a
     separator is skipped in favour of the next row for that name *)
  let help =
    P.help_of_markdown
      (docs
     ^ "| `serve.requests` | counter | a later duplicate |\n\
        | `serve.spans` | span | --- |\n\
        | `serve.spans` | span | the row after a separator cell |\n")
  in
  check_bool "first of duplicate rows wins" true
    (help "serve.requests" = Some "HTTP requests accepted");
  check_bool "repeated lookups agree" true
    (help "serve.requests" = Some "HTTP requests accepted"
    && help "serve.errors" = Some "responses with status >= 400");
  check_bool "separator meaning cell falls through to the next row" true
    (help "serve.spans" = Some "the row after a separator cell");
  check_bool "unknown name is None on a reused closure" true
    (help "serve.nosuch" = None)

(* The golden file pins the full exposition byte-for-byte for the fixed
   snapshot above (timers off). Regenerate deliberately after a format
   change, from the repo root:
     PROM_GOLDEN_REGEN=1 dune exec test/main.exe -- test prom *)
let test_golden () =
  let candidates =
    [ "prom_golden.txt"; "test/prom_golden.txt"; "../test/prom_golden.txt" ]
  in
  let rendered = P.render ~timers:false fixed_snapshot in
  match Sys.getenv_opt "PROM_GOLDEN_REGEN" with
  | Some _ ->
      let path =
        Option.value ~default:"test/prom_golden.txt"
          (List.find_opt Sys.file_exists candidates)
      in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc rendered)
  | None ->
      let golden_path =
        match List.find_opt Sys.file_exists candidates with
        | Some p -> p
        | None -> Alcotest.fail "prom_golden.txt not found"
      in
      let golden =
        In_channel.with_open_text golden_path In_channel.input_all
      in
      check_str "exposition matches the golden file byte-for-byte" golden
        rendered

let suite =
  ( "prom",
    [
      Alcotest.test_case "mangle basics" `Quick test_mangle;
      Alcotest.test_case "mangle injective on catalog" `Quick
        test_mangle_injective_on_catalog;
      Alcotest.test_case "HELP escaping" `Quick test_escape_help;
      Alcotest.test_case "bucket cumulativity and +Inf" `Quick
        test_bucket_cumulativity;
      Alcotest.test_case "HELP/TYPE lines" `Quick test_help_and_type_lines;
      Alcotest.test_case "timers toggle and span units" `Quick
        test_timers_toggle;
      Alcotest.test_case "parse_values round-trip" `Quick
        test_parse_values_round_trip;
      Alcotest.test_case "help_of_markdown" `Quick test_help_of_markdown;
      Alcotest.test_case "golden exposition" `Quick test_golden;
    ] )
