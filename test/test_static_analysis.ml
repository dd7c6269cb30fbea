(* Fixture tests for the whynot-check static-analysis engine: each rule has
   at least one flagged (positive) and one clean (negative) fixture, checked
   at the engine level so the dune alias stays a thin wrapper. *)

module Engine = Whynot_check.Engine
module Config = Whynot_check.Config
module Diag = Whynot_check.Diag
module Baseline = Whynot_check.Baseline

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let config = Config.default

let analyze ?(filename = "lib/fixture.ml") source =
  match Engine.check_source ~config ~filename source with
  | Ok pair -> pair
  | Error msg -> Alcotest.failf "fixture failed to parse: %s" msg

let rules ?filename source =
  let fr, _ = analyze ?filename source in
  List.map (fun d -> d.Diag.rule) fr.Engine.diags

let count rule ds = List.length (List.filter (String.equal rule) ds)

let test_poly_compare () =
  check_int "structured (=) flagged" 1
    (count "poly-compare" (rules "let f x = x = Some 1"));
  check_int "structured (<>) flagged" 1
    (count "poly-compare" (rules "let f x = x <> Some 'a'"));
  check_int "bare compare flagged" 1
    (count "poly-compare" (rules "let f xs = List.sort compare xs"));
  check_int "physical equality flagged" 1
    (count "poly-compare" (rules "let f a b = a == b"));
  check_int "Stdlib.compare flagged" 1
    (count "poly-compare" (rules "let f a b = Stdlib.compare a b"));
  (* negatives *)
  check_int "Int.compare clean" 0
    (count "poly-compare" (rules "let f xs = List.sort Int.compare xs"));
  check_int "int literal (=) clean" 0
    (count "poly-compare" (rules "let f x = x = 1"));
  check_int "nullary constructor (=) clean" 0
    (count "poly-compare" (rules "let f x = x = None"));
  check_int "locally defined compare clean" 0
    (count "poly-compare"
       (rules "let compare a b = Int.compare a b\nlet f xs = List.sort compare xs"))

let test_checked_arith () =
  let in_tcn = rules ~filename:"lib/tcn/fixture.ml" in
  check_int "bare (+) flagged in lib/tcn" 1
    (count "checked-arith" (in_tcn "let f a b = a + b"));
  check_int "bare unary negation flagged" 1
    (count "checked-arith" (in_tcn "let f a = -a"));
  (* negatives *)
  check_int "small literal operand exempt" 0
    (count "checked-arith" (in_tcn "let f a = a + 1"));
  check_int "Checked module clean" 0
    (count "checked-arith" (in_tcn "let f a b = Numeric.Checked.add a b"));
  check_int "outside configured paths clean" 0
    (count "checked-arith" (rules ~filename:"lib/cep/fixture.ml" "let f a b = a + b"));
  (* an annotated site lands in the suppressed bucket, not the findings *)
  let fr, suppressed =
    analyze ~filename:"lib/tcn/fixture.ml"
      "let f a b = a + b (* check: idx - fixture reason *)"
  in
  check_int "annotation suppresses the finding" 0 (List.length fr.Engine.diags);
  check_int "suppressed is recorded" 1 (List.length suppressed)

let test_exn_swallow () =
  check_int "catch-all swallow flagged" 1
    (count "exn-swallow" (rules "let f g = try g () with _ -> 0"));
  check_int "named catch-all swallow flagged" 1
    (count "exn-swallow" (rules "let f g = try g () with e -> ignore e; 0"));
  (* negatives *)
  check_int "re-raise clean" 0
    (count "exn-swallow" (rules "let f g = try g () with e -> raise e"));
  check_int "recorded to Obs clean" 0
    (count "exn-swallow"
       (rules "let f g c = try g () with _ -> Obs.incr c; 0"));
  check_int "specific constructor clean" 0
    (count "exn-swallow" (rules "let f g = try g () with Not_found -> 0"))

let test_no_stdout () =
  check_int "print_string flagged in lib" 1
    (count "no-stdout" (rules "let f () = print_string \"hi\""));
  check_int "Printf.printf flagged in lib" 1
    (count "no-stdout" (rules "let f x = Printf.printf \"%d\" x"));
  (* negatives *)
  check_int "lib/report is allowed" 0
    (count "no-stdout"
       (rules ~filename:"lib/report/fixture.ml" "let f () = print_string \"hi\""));
  check_int "bin is allowed" 0
    (count "no-stdout"
       (rules ~filename:"bin/fixture.ml" "let f () = print_string \"hi\""));
  check_int "stderr is fine" 0
    (count "no-stdout" (rules "let f x = Printf.eprintf \"%d\" x"))

let test_domain_safety () =
  let spawning =
    "let total = ref 0\n\
     let run f = ignore (Domain.spawn f)\n\
     let bump () = incr total\n"
  in
  check_int "unguarded toplevel ref mutation flagged" 1
    (count "domain-safety" (rules spawning));
  let guarded =
    "let m = Mutex.create ()\n\
     let total = ref 0\n\
     let run f = ignore (Domain.spawn f)\n\
     let bump () = Mutex.lock m; incr total; Mutex.unlock m\n"
  in
  check_int "mutex-guarded mutation clean" 0 (count "domain-safety" (rules guarded));
  let no_domains = "let total = ref 0\nlet bump () = incr total\n" in
  check_int "no Domain.spawn, no rule" 0 (count "domain-safety" (rules no_domains))

let test_metrics_doc () =
  let missing ~docs source =
    let fr, _ = analyze source in
    List.length (Engine.missing_metric_diags ~docs fr.Engine.metrics)
  in
  let fr, _ = analyze "let c = Obs.counter \"fixture.metric\"" in
  check_int "registration site collected" 1 (List.length fr.Engine.metrics);
  (* one diag per missing required name: the raw name and its exposition name *)
  check_int "undocumented name reported" 2
    (List.length (Engine.missing_metric_diags ~docs:"unrelated text" fr.Engine.metrics));
  (* counters need the raw name AND the exposition name documented *)
  check_int "raw name alone is not enough" 1
    (missing ~docs:"| `fixture.metric` | counter |"
       "let c = Obs.counter \"fixture.metric\"");
  check_int "raw + exposition name clean" 0
    (missing
       ~docs:"| `fixture.metric` | counter | `whynot_fixture_metric` |"
       "let c = Obs.counter \"fixture.metric\"");
  (* spans map to a _seconds summary, not the bare mangled name *)
  check_int "span needs its _seconds series" 1
    (missing ~docs:"| `fixture.span` | `whynot_fixture_span` |"
       "let s = Obs.span \"fixture.span\"");
  check_int "span with _seconds clean" 0
    (missing ~docs:"| `fixture.span` | `whynot_fixture_span_seconds` |"
       "let s = Obs.span \"fixture.span\"");
  (* ~buckets derives a .duration_us histogram that must be documented
     (raw and exposition names, hence two diags when absent) *)
  check_int "span ~buckets also requires the derived histogram" 2
    (missing ~docs:"| `fixture.span` | `whynot_fixture_span_seconds` |"
       "let s b = Obs.span ~buckets:b \"fixture.span\"");
  check_int "derived histogram documented clean" 0
    (missing
       ~docs:
         "| `fixture.span` | `whynot_fixture_span_seconds` |\n\
          | `fixture.span.duration_us` | `whynot_fixture_span_duration_us` |"
       "let s b = Obs.span ~buckets:b \"fixture.span\"");
  (* Log/Trace names are internal-only: raw name suffices *)
  check_int "log event raw name clean" 0
    (missing ~docs:"| `fixture.event` | info |"
       "let f () = Obs.Log.emit Obs.Log.Info \"fixture.event\" []");
  check_int "catalog entries collected raw-only" 0
    (missing ~docs:"`fixture.a` and `fixture.b`"
       "let event_names = [ \"fixture.a\"; \"fixture.b\" ]");
  check_int "catalog entries still reported when absent" 2
    (missing ~docs:"nothing"
       "let event_names = [ \"fixture.a\"; \"fixture.b\" ]");
  let test_prefixed, _ = analyze "let c = Obs.counter \"test.only\"" in
  check_int "test.* names are exempt" 0
    (List.length
       (Engine.missing_metric_diags ~docs:"nothing" test_prefixed.Engine.metrics))

let test_baseline_and_gate () =
  let d =
    {
      Diag.file = "lib/fixture.ml";
      line = 3;
      col = 1;
      rule = "poly-compare";
      severity = Diag.Error;
      message = "fixture";
    }
  in
  let entry reason file rule line = { Baseline.file; rule; line; reason } in
  let b = [ entry "documented exception" "lib/fixture.ml" "poly-compare" (Some 3) ] in
  let kept, baselined, stale = Baseline.apply b [ d ] in
  check_int "matching entry absorbs the diag" 0 (List.length kept);
  check_int "baselined recorded" 1 (List.length baselined);
  check_int "no stale entries" 0 (List.length stale);
  let stale_b = [ entry "gone" "lib/other.ml" "no-stdout" None ] in
  let kept, _, stale = Baseline.apply stale_b [ d ] in
  check_int "unmatched diag kept" 1 (List.length kept);
  check_int "unmatched entry is stale" 1 (List.length stale);
  let result findings errors =
    {
      Engine.findings;
      suppressed = [];
      baselined = [];
      stale_baseline = [];
      errors;
      files_scanned = 1;
      files_analyzed = 1;
      timings = [];
      lock_pairs = [];
    }
  in
  check_int "clean gates 0" 0 (Engine.gate (result [] []));
  check_int "findings gate 1" 1 (Engine.gate (result [ d ] []));
  check_int "infrastructure gates 2" 2 (Engine.gate (result [] [ "io error" ]))

(* ---- interprocedural lock-discipline fixtures ----------------------- *)

(* Lock fixtures go through [analyze_sources], the same whole-tree pipeline
   the CLI uses, so call-graph summaries and the global order checks run. *)
let tree ?(config = config) sources =
  let r = Engine.analyze_sources ~config sources in
  r.Engine.findings

let tree_rules ?config sources =
  List.map (fun d -> d.Diag.rule) (tree ?config sources)

let message_with rule ds =
  match List.find_opt (fun d -> String.equal d.Diag.rule rule) ds with
  | Some d -> d.Diag.message
  | None -> Alcotest.failf "no %s finding" rule

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let fx source = [ ("lib/fixture.ml", source) ]

let test_lock_balance () =
  check_int "early raise while holding flagged" 1
    (count "lock-balance"
       (tree_rules
          (fx
             "let m = Mutex.create ()\n\
              let f x = Mutex.lock m; if x then failwith \"boom\"; \
              Mutex.unlock m\n")));
  check_int "unlock missing on one branch flagged" 1
    (count "lock-balance"
       (tree_rules
          (fx
             "let m = Mutex.create ()\n\
              let f x = Mutex.lock m; if x then Mutex.unlock m\n")));
  check_int "unlock with no matching lock flagged" 1
    (count "lock-balance"
       (tree_rules (fx "let m = Mutex.create ()\nlet f () = Mutex.unlock m\n")));
  (* negatives: the three sanctioned release shapes *)
  check_int "straight-line lock/unlock clean" 0
    (count "lock-balance"
       (tree_rules
          (fx
             "let m = Mutex.create ()\n\
              let f g = Mutex.lock m; let v = g 1 in Mutex.unlock m; v\n")));
  check_int "Fun.protect releases on raise" 0
    (count "lock-balance"
       (tree_rules
          (fx
             "let m = Mutex.create ()\n\
              let f () =\n\
             \  Mutex.lock m;\n\
             \  Fun.protect ~finally:(fun () -> Mutex.unlock m)\n\
             \    (fun () -> failwith \"boom\")\n")));
  check_int "match-exception handler releases on raise" 0
    (count "lock-balance"
       (tree_rules
          (fx
             "let m = Mutex.create ()\n\
              let f g =\n\
             \  Mutex.lock m;\n\
             \  match g () with\n\
             \  | v -> Mutex.unlock m; v\n\
             \  | exception e -> Mutex.unlock m; raise e\n")))

let lock_ab_ba =
  "let a = Mutex.create ()\n\
   let b = Mutex.create ()\n\
   let f () = Mutex.lock a; Mutex.lock b; Mutex.unlock b; Mutex.unlock a\n\
   let g () = Mutex.lock b; Mutex.lock a; Mutex.unlock a; Mutex.unlock b\n"

let test_lock_order () =
  let pinned = { config with Config.lock_order = [ "fixture.a"; "fixture.b" ] } in
  (* AB in one function, BA in another: a deadlock finding naming both
     locks and both acquisition paths *)
  let findings = tree ~config:pinned (fx lock_ab_ba) in
  check_bool "conflict reported" true
    (List.exists (fun d -> String.equal d.Diag.rule "lock-order") findings);
  let msg = message_with "lock-order" findings in
  check_bool "names the conflict" true (contains msg "conflicting");
  check_bool "names lock a" true (contains msg "fixture.a");
  check_bool "names lock b" true (contains msg "fixture.b");
  check_bool "names path f" true (contains msg "fixture.f");
  check_bool "names path g" true (contains msg "fixture.g");
  (* one direction only, but against the pinned order *)
  let reversed_only =
    "let a = Mutex.create ()\n\
     let b = Mutex.create ()\n\
     let g () = Mutex.lock b; Mutex.lock a; Mutex.unlock a; Mutex.unlock b\n"
  in
  check_int "pinned-order violation flagged" 1
    (count "lock-order" (tree_rules ~config:pinned (fx reversed_only)));
  let ordered =
    "let a = Mutex.create ()\n\
     let b = Mutex.create ()\n\
     let f () = Mutex.lock a; Mutex.lock b; Mutex.unlock b; Mutex.unlock a\n"
  in
  check_int "pinned order respected clean" 0
    (count "lock-order" (tree_rules ~config:pinned (fx ordered)));
  check_int "pair outside lock_order must be pinned" 1
    (count "lock-order" (tree_rules (fx ordered)));
  (* transitive acquisition through a callee is still a pair *)
  let transitive =
    "let a = Mutex.create ()\n\
     let b = Mutex.create ()\n\
     let inner g = Mutex.lock a; let v = g 1 in Mutex.unlock a; v\n\
     let outer g = Mutex.lock b; let v = inner g in Mutex.unlock b; v\n"
  in
  check_int "transitive reversed pair flagged" 1
    (count "lock-order" (tree_rules ~config:pinned (fx transitive)))

let test_lock_multi_acquire () =
  let batch =
    "type sh = { lk : Mutex.t }\n\
     let admit shards =\n\
    \  List.iter (fun s -> Mutex.lock s.lk) shards;\n\
    \  List.iter (fun s -> Mutex.unlock s.lk) shards\n"
  in
  let base = { config with Config.lock_order = [ "fixture.lk" ] } in
  check_int "batch same-class acquisition needs sanction" 1
    (count "lock-order"
       (tree_rules
          ~config:{ base with Config.lock_multi_acquire = [] }
          (fx batch)));
  check_int "lock_multi_acquire sanctions the batch" 0
    (count "lock-order"
       (tree_rules
          ~config:{ base with Config.lock_multi_acquire = [ "fixture.lk" ] }
          (fx batch)))

let test_blocking_under_lock () =
  check_int "Unix.write under lock flagged" 1
    (count "blocking-under-lock"
       (tree_rules
          (fx
             "let m = Mutex.create ()\n\
              let f fd buf = Mutex.lock m; let n = Unix.write fd buf 0 1 in \
              Mutex.unlock m; n\n")));
  check_int "Unix.write outside the lock clean" 0
    (count "blocking-under-lock"
       (tree_rules
          (fx
             "let m = Mutex.create ()\n\
              let f fd buf = let n = Unix.write fd buf 0 1 in Mutex.lock m; \
              Mutex.unlock m; n\n")));
  check_int "non-blocking Unix call under lock clean" 0
    (count "blocking-under-lock"
       (tree_rules
          (fx
             "let m = Mutex.create ()\n\
              let f () = Mutex.lock m; let t = Unix.gettimeofday () in \
              Mutex.unlock m; t\n")));
  (* interprocedural: the blocking call is one hop away; the finding cites
     the acquisition path *)
  let transitive =
    "let m = Mutex.create ()\n\
     let slow () = Unix.sleep 1\n\
     let f () = Mutex.lock m; slow (); Mutex.unlock m\n"
  in
  let findings = tree (fx transitive) in
  check_int "transitive blocking flagged" 1
    (count "blocking-under-lock" (List.map (fun d -> d.Diag.rule) findings));
  check_bool "finding cites the call path" true
    (contains (message_with "blocking-under-lock" findings) "fixture.slow")

let test_condition_discipline () =
  check_int "canonical wait loop clean" 0
    (List.length
       (tree
          (fx
             "let m = Mutex.create ()\n\
              let cv = Condition.create ()\n\
              let wait_ready p =\n\
             \  Mutex.lock m;\n\
             \  while not (p ()) do Condition.wait cv m done;\n\
             \  Mutex.unlock m\n")));
  check_int "wait without holding its mutex flagged" 1
    (count "condition-discipline"
       (tree_rules
          (fx
             "let m = Mutex.create ()\n\
              let cv = Condition.create ()\n\
              let f p = while not (p ()) do Condition.wait cv m done\n")));
  check_int "wait outside a while loop flagged" 1
    (count "condition-discipline"
       (tree_rules
          (fx
             "let m = Mutex.create ()\n\
              let cv = Condition.create ()\n\
              let f () = Mutex.lock m; Condition.wait cv m; Mutex.unlock m\n")));
  check_int "one condition under two mutexes flagged" 1
    (count "condition-discipline"
       (tree_rules
          (fx
             "let a = Mutex.create ()\n\
              let b = Mutex.create ()\n\
              let cv = Condition.create ()\n\
              let f p = Mutex.lock a; while not (p ()) do Condition.wait cv \
              a done; Mutex.unlock a\n\
              let g p = Mutex.lock b; while not (p ()) do Condition.wait cv \
              b done; Mutex.unlock b\n")));
  check_int "signal without the associated mutex flagged" 1
    (count "condition-discipline"
       (tree_rules
          (fx
             "let m = Mutex.create ()\n\
              let cv = Condition.create ()\n\
              let f p = Mutex.lock m; while not (p ()) do Condition.wait cv \
              m done; Mutex.unlock m\n\
              let g () = Condition.signal cv\n")));
  check_int "signal under the associated mutex clean" 0
    (count "condition-discipline"
       (tree_rules
          (fx
             "let m = Mutex.create ()\n\
              let cv = Condition.create ()\n\
              let f p = Mutex.lock m; while not (p ()) do Condition.wait cv \
              m done; Mutex.unlock m\n\
              let g () = Mutex.lock m; Condition.signal cv; Mutex.unlock m\n")))

let test_stale_suppression () =
  (* a comment that suppresses nothing is itself a finding... *)
  let dead =
    tree (fx "let f a b = a + b (* check: idx - nothing to suppress here *)\n")
  in
  check_int "dead suppression flagged" 1
    (count "stale-suppression" (List.map (fun d -> d.Diag.rule) dead));
  (* ...while a live one suppresses its finding and stays silent *)
  let live =
    Engine.analyze_sources ~config
      [
        ( "lib/tcn/fixture.ml",
          "let f a b = a + b (* check: idx - fixture reason *)\n" );
      ]
  in
  check_int "live suppression is not stale" 0 (List.length live.Engine.findings);
  check_int "live suppression recorded" 1 (List.length live.Engine.suppressed)

(* Rule ids and aliases with a dash in them are whole tokens: only a dash
   between blanks starts the reason, and the reason may hold dashes of its
   own. Each annotated site must land in the suppressed bucket, leaving no
   finding and no stale suppression behind. *)
let test_hyphenated_tokens () =
  let pinned = { config with Config.lock_order = [ "fixture.a"; "fixture.b" ] } in
  let case ?(config = config) ?(filename = "lib/fixture.ml") name rule source =
    let r = Engine.analyze_sources ~config [ (filename, source) ] in
    let rules ds = List.map (fun d -> d.Diag.rule) ds in
    check_int (name ^ ": no finding left") 0 (List.length r.Engine.findings);
    check_int (name ^ ": suppressed") 1 (count rule (rules r.Engine.suppressed))
  in
  case "physical-eq" "poly-compare"
    "let f a b = a == b (* check: physical-eq - fixture reason *)\n";
  case "poly-compare" "poly-compare"
    "let f x = x = Some 1 (* check: poly-compare - fixture reason *)\n";
  case "exn-swallow" "exn-swallow"
    "let f g = try g () with _ -> 0 (* check: exn-swallow - fixture reason *)\n";
  case "no-stdout" "no-stdout"
    "let f () = print_string \"hi\" (* check: no-stdout - fixture reason *)\n";
  case ~filename:"lib/tcn/fixture.ml" "checked-arith" "checked-arith"
    "let f a b = a + b (* check: checked-arith - fixture reason *)\n";
  case ~config:pinned "lock-order" "lock-order"
    "let a = Mutex.create ()\n\
     let b = Mutex.create ()\n\
     let g () = Mutex.lock b; Mutex.lock a; Mutex.unlock a; Mutex.unlock b \
     (* check: lock-order - fixture reason *)\n";
  case ~filename:"lib/tcn/fixture.ml" "hyphenated reason" "checked-arith"
    "let f a b = a + b (* check: idx - a hand-checked, well-known sum *)\n";
  case ~filename:"lib/tcn/fixture.ml" "two tokens, hyphenated reason"
    "checked-arith"
    "let f a b = a + b (* check: poly-compare, checked-arith - re-checked \
     - twice *)\n"

(* The real serving stack must stay clean under the lock rules, and its
   observed acquisition structure must stay what DESIGN.md documents: no
   acquisition nests inside another — a worker holds one shard lock at a
   time, and the Obs locks are leaves. *)
let repo_file p =
  (* runs from test/ under `dune runtest` and from the root under exec *)
  match List.find_opt Sys.file_exists [ "../" ^ p; p; "../../" ^ p ] with
  | Some path -> path
  | None -> Alcotest.failf "%s not found" p

let test_real_tree_lock_discipline () =
  let read p = In_channel.with_open_text (repo_file p) In_channel.input_all in
  let sources =
    List.map
      (fun p -> (p, read p))
      [ "lib/obs.ml"; "lib/serve/http.ml"; "lib/serve/shard.ml";
        "lib/serve/service.ml" ]
  in
  let lock_only = { config with Config.rules = Config.lock_rules } in
  let r = Engine.analyze_sources ~config:lock_only sources in
  List.iter
    (fun d ->
      Alcotest.failf "unexpected finding: %s" (Format.asprintf "%a" Diag.pp d))
    r.Engine.findings;
  List.iter
    (fun (o, i, _) ->
      Alcotest.failf "unexpected nested acquisition: %s -> %s" o i)
    r.Engine.lock_pairs

let test_config_pins_lock_order () =
  match Config.load (repo_file "tools/whynot_check/config.json") with
  | Error msg -> Alcotest.failf "config.json unreadable: %s" msg
  | Ok c ->
      check_bool "lock_order matches the built-in default" true
        (c.Config.lock_order = Config.default.Config.lock_order);
      check_bool "no lock class is sanctioned for batch acquisition" true
        (c.Config.lock_multi_acquire = []
        && Config.default.Config.lock_multi_acquire = []);
      check_bool "order is outermost-first from the request path" true
        (c.Config.lock_order
        = [ "http.cm"; "shard.sm"; "obs.rt_lock"; "obs.ring_lock";
            "obs.lock" ])

let test_parse_failure_is_error () =
  check_bool "unparsable fixture is an infrastructure error" true
    (match
       Engine.check_source ~config ~filename:"lib/broken.ml" "let = = ="
     with
    | Error _ -> true
    | Ok _ -> false)

let suite =
  ( "static_analysis",
    [
      Alcotest.test_case "poly-compare fixtures" `Quick test_poly_compare;
      Alcotest.test_case "checked-arith fixtures" `Quick test_checked_arith;
      Alcotest.test_case "exn-swallow fixtures" `Quick test_exn_swallow;
      Alcotest.test_case "no-stdout fixtures" `Quick test_no_stdout;
      Alcotest.test_case "domain-safety fixtures" `Quick test_domain_safety;
      Alcotest.test_case "metrics-doc fixtures" `Quick test_metrics_doc;
      Alcotest.test_case "lock-balance fixtures" `Quick test_lock_balance;
      Alcotest.test_case "lock-order fixtures" `Quick test_lock_order;
      Alcotest.test_case "lock_multi_acquire fixtures" `Quick
        test_lock_multi_acquire;
      Alcotest.test_case "blocking-under-lock fixtures" `Quick
        test_blocking_under_lock;
      Alcotest.test_case "condition-discipline fixtures" `Quick
        test_condition_discipline;
      Alcotest.test_case "stale-suppression fixtures" `Quick
        test_stale_suppression;
      Alcotest.test_case "hyphenated suppression tokens" `Quick
        test_hyphenated_tokens;
      Alcotest.test_case "real tree obeys the lock discipline" `Quick
        test_real_tree_lock_discipline;
      Alcotest.test_case "config.json pins the global lock order" `Quick
        test_config_pins_lock_order;
      Alcotest.test_case "baseline and exit gating" `Quick test_baseline_and_gate;
      Alcotest.test_case "parse failure is infrastructure" `Quick
        test_parse_failure_is_error;
    ] )
