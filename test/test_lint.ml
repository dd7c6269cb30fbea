open Whynot
module Lint = Explain.Lint

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let p s = [ Pattern.Parse.pattern_exn s ]

let find_bound report pred =
  List.find_opt (fun f -> pred f.Lint.bound) report.Lint.findings

let test_ok_bounds () =
  let r = Lint.run (p "SEQ(A, B) ATLEAST 10 WITHIN 20") in
  check_bool "consistent" true r.consistent;
  check_int "two findings" 2 (List.length r.findings);
  check_bool "both ok" true
    (List.for_all (fun f -> f.Lint.verdict = Lint.Ok_bound) r.findings)

let test_dead_atleast () =
  (* outer ATLEAST 5 is implied by the inner ATLEAST 30 *)
  let r = Lint.run (p "SEQ(SEQ(A, B) ATLEAST 30, C) ATLEAST 5") in
  match find_bound r (function `Atleast 5 -> true | _ -> false) with
  | Some { verdict = Lint.Dead { implied }; _ } ->
      check_int "implied by inner bound" 30 implied
  | _ -> Alcotest.fail "expected outer ATLEAST to be dead"

let test_dead_within () =
  (* The second pattern's WITHIN 100 is implied by the first's WITHIN 20
     (same events, joint constraint set). *)
  let set =
    match Pattern.Parse.pattern_set "SEQ(A, B) WITHIN 20; SEQ(A, B) WITHIN 100" with
    | Ok ps -> ps
    | Error e -> Alcotest.fail e
  in
  let r = Lint.run set in
  match List.find_opt (fun f -> f.Lint.bound = `Within 100) r.findings with
  | Some { verdict = Lint.Dead { implied }; _ } -> check_int "implied 20" 20 implied
  | _ -> Alcotest.fail "expected the loose WITHIN to be dead"

let test_fatal_bound () =
  (* The paper's 1.1.1 bug: 30+30 can never fit WITHIN 45 — the linter
     blames the WITHIN bound specifically. *)
  let r =
    Lint.run (p "SEQ(AND(E1, E3) ATLEAST 30, AND(E2, E4) ATLEAST 30) WITHIN 45")
  in
  check_bool "whole query inconsistent" false r.consistent;
  (match find_bound r (function `Within 45 -> true | _ -> false) with
  | Some { verdict = Lint.Fatal { implied_lo = Some lo; _ }; _ } ->
      check_bool "implied lower bound beyond 45" true (lo > 45)
  | _ -> Alcotest.fail "expected the WITHIN 45 to be fatal");
  (* every bound participates in the conflict, so each is flagged as a
     candidate fix — relaxing any one of the three restores consistency *)
  check_bool "all three bounds flagged" true
    (List.for_all
       (fun f -> match f.Lint.verdict with Lint.Fatal _ -> true | _ -> false)
       r.findings);
  check_int "three findings" 3 (List.length r.findings)

let test_normalization_savings () =
  let r = Lint.run (p "AND(AND(A, B), AND(C, D))") in
  let before, after = r.normalized_savings in
  check_int "before" 64 before;
  check_int "after" 16 after

let test_no_windows () =
  let r = Lint.run (p "SEQ(A, AND(B, C))") in
  check_int "no findings" 0 (List.length r.findings);
  check_bool "consistent" true r.consistent

(* Removing ONE Dead bound must preserve the matcher's semantics on random
   tuples (that is what "dead" means; removing several at once is not
   implied — two bounds can each be dead only given the other). *)
let prop_dead_bounds_removable =
  QCheck.Test.make ~name:"each dead bound is individually removable" ~count:60
    (Gen.pattern_and_tuple ~horizon:150 ~max_events:5 ()) (fun (pat, t) ->
      let report = Lint.run [ pat ] in
      List.for_all
        (fun f ->
          match f.Lint.verdict with
          | Lint.Dead _ ->
              let stripped =
                Lint.map_window [ pat ] f.Lint.path (fun w ->
                    match f.Lint.bound with
                    | `Atleast _ -> { w with Pattern.Ast.atleast = None }
                    | `Within _ -> { w with Pattern.Ast.within = None })
              in
              Pattern.Matcher.matches_set t [ pat ]
              = Pattern.Matcher.matches_set t stripped
          | _ -> true)
        report.findings)

(* --- metrics lint: docs/OBSERVABILITY.md must name every metric --- *)

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Every metric registers when its module initialises: run each entry
   point once so every instrumented module is linked and initialised
   before the registry is snapshotted. *)
let materialize_registry () =
  let p0 = Pattern.Parse.pattern_exn "SEQ(A, B) WITHIN 20" in
  let t = Events.Tuple.of_list [ ("A", 0); ("B", 50) ] in
  ignore (Explain.Pipeline.explain [ p0 ] t);
  ignore (Cep.Bulk.explain_trace [ p0 ] (Events.Trace.of_list [ ("t0", t) ]));
  let detector = Cep.Detector.create [ p0 ] in
  ignore (Cep.Detector.feed detector { Cep.Detector.event = "A"; timestamp = 0; tag = "x" });
  let stream = Cep.Stream.create [ p0 ] in
  ignore (Cep.Stream.feed stream ~key:"k" "A" 0);
  (* a 4-shard pool registers the per-shard serve.shard.<k>.* series *)
  ignore (Serve.Service.create ~shards:4 [ p0 ])

let test_metrics_documented () =
  materialize_registry ();
  let docs =
    (* dune runtest runs in _build/default/test with ../docs staged as a
       dep; the fallbacks cover running the executable by hand. *)
    let candidates =
      [
        "../docs/OBSERVABILITY.md";
        "docs/OBSERVABILITY.md";
        "../../docs/OBSERVABILITY.md";
        "../../../docs/OBSERVABILITY.md";
      ]
    in
    match List.find_opt Sys.file_exists candidates with
    | Some path -> In_channel.with_open_text path In_channel.input_all
    | None -> Alcotest.fail "docs/OBSERVABILITY.md not found"
  in
  let snap = Obs.snapshot () in
  let keep names =
    List.filter
      (fun n -> not (String.starts_with ~prefix:"test." n))
      (List.map fst names)
  in
  let registry_names =
    keep snap.Obs.counters @ keep snap.Obs.gauges @ keep snap.Obs.histograms
    @ keep snap.Obs.spans
  in
  (* Samples on /metrics carry mangled names: counters, gauges and
     histograms expose the mangled name directly; spans surface as a
     _seconds summary. All of those must be documented too, alongside
     the raw names, the trace kinds and the structured-log events. *)
  let exposition_names =
    List.map Report.Prom_text.mangle
      (keep snap.Obs.counters @ keep snap.Obs.gauges @ keep snap.Obs.histograms)
    @ List.map
        (fun n -> Report.Prom_text.mangle n ^ Report.Prom_text.span_suffix)
        (keep snap.Obs.spans)
  in
  let missing =
    List.filter
      (fun name -> not (contains_substring docs name))
      (registry_names @ exposition_names @ Obs.Trace.kind_names
     @ Obs.Log.event_names)
  in
  Alcotest.(check (list string))
    "every registered metric, exposition, trace and log name appears in \
     docs/OBSERVABILITY.md"
    [] missing

let test_map_window_bad_paths () =
  let ps = p "SEQ(A, B) WITHIN 20" in
  let raises name f =
    check_bool name true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  raises "empty path" (fun () -> Lint.map_window ps [] Fun.id);
  raises "pattern index out of range" (fun () -> Lint.map_window ps [ 5 ] Fun.id);
  raises "negative pattern index" (fun () -> Lint.map_window ps [ -1 ] Fun.id);
  raises "child index out of range" (fun () -> Lint.map_window ps [ 0; 7 ] Fun.id);
  raises "path ends at an event" (fun () -> Lint.map_window ps [ 0; 0 ] Fun.id);
  raises "path through an event leaf" (fun () ->
      Lint.map_window ps [ 0; 0; 0 ] Fun.id);
  (* a valid path still rewrites the window *)
  match Lint.map_window ps [ 0 ] (fun w -> { w with Pattern.Ast.within = None }) with
  | [ Pattern.Ast.Seq (_, w) ] ->
      check_bool "window erased" true (w.Pattern.Ast.within = None)
  | _ -> Alcotest.fail "expected the rewritten SEQ"

let suite =
  ( "lint",
    [
      Alcotest.test_case "genuinely constraining bounds" `Quick test_ok_bounds;
      Alcotest.test_case "dead ATLEAST detected" `Quick test_dead_atleast;
      Alcotest.test_case "dead WITHIN detected" `Quick test_dead_within;
      Alcotest.test_case "fatal bound blamed (paper 1.1.1)" `Quick test_fatal_bound;
      Alcotest.test_case "normalization savings" `Quick test_normalization_savings;
      Alcotest.test_case "window-less query" `Quick test_no_windows;
      Alcotest.test_case "map_window rejects bad paths" `Quick
        test_map_window_bad_paths;
      Alcotest.test_case "metrics documented (@metrics-lint)" `Quick
        test_metrics_documented;
      Gen.qt prop_dead_bounds_removable;
    ] )
