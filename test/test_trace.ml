open Whynot
module T = Obs.Trace

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* The tracer is process-global: every test configures its own ring and
   disables tracing on the way out so the other suites run untraced. *)
let with_tracer ?capacity ?sample f =
  T.configure ?capacity ?sample ();
  Fun.protect ~finally:T.disable f

(* Timed spans under [test.] names, which the docs lint exempts. *)
let child = Obs.span "test.child"
let grand = Obs.span "test.grand"
let sibling = Obs.span "test.sibling"
let inner = Obs.span "test.inner"

let spans_of events =
  List.filter_map
    (fun (e : T.event) ->
      match e.kind with
      | T.Span_open { name; parent } -> Some (e.span, name, parent, e.trace_id)
      | _ -> None)
    events

let test_span_tree () =
  with_tracer @@ fun () ->
  T.with_trace "root" (fun () ->
      Obs.time child (fun () -> Obs.time grand (fun () -> ()));
      Obs.time sibling (fun () -> ()));
  let events = T.events () in
  check_int "drop-free" 0 (T.dropped ());
  (match spans_of events with
  | [ (root, "root", 0, 1); (c, "test.child", pc, 1); (g, "test.grand", pg, 1);
      (_, "test.sibling", ps, 1) ] ->
      check_int "child's parent is root" root pc;
      check_int "grandchild's parent is child" c pg;
      check_int "sibling's parent is root" root ps;
      check_bool "span ids are distinct" true (c <> g && g <> root)
  | other -> Alcotest.failf "unexpected span shape (%d opens)" (List.length other));
  let opens, closes =
    List.fold_left
      (fun (o, c) (e : T.event) ->
        match e.kind with
        | T.Span_open _ -> (o + 1, c)
        | T.Span_close _ -> (o, c + 1)
        | _ -> (o, c))
      (0, 0) events
  in
  check_int "every span closed" opens closes

let test_exception_safety () =
  with_tracer @@ fun () ->
  check_bool "exception propagates" true
    (try
       T.with_trace "boom" (fun () ->
           Obs.time inner (fun () -> raise Exit))
     with Exit -> true);
  let events = T.events () in
  let closes =
    List.filter_map
      (fun (e : T.event) ->
        match e.kind with T.Span_close { name } -> Some name | _ -> None)
      events
  in
  Alcotest.(check (list string))
    "both spans closed despite the raise" [ "test.inner"; "boom" ] closes;
  (* The domain context was restored: the next trace is top-level again. *)
  T.with_trace "after" (fun () -> ());
  let trace_ids =
    List.sort_uniq compare
      (List.map (fun (e : T.event) -> e.trace_id) (T.events ()))
  in
  Alcotest.(check (list int)) "second trace got a fresh id" [ 1; 2 ] trace_ids

let test_nested_with_trace () =
  with_tracer @@ fun () ->
  T.with_trace "outer" (fun () -> T.with_trace "inner" (fun () -> ()));
  let events = T.events () in
  check_bool "events recorded" true (events <> []);
  List.iter
    (fun (e : T.event) -> check_int "single trace id" 1 e.trace_id)
    events;
  match spans_of events with
  | [ (outer, "outer", 0, _); (_, "inner", p, _) ] ->
      check_int "inner nests as a child span" outer p
  | _ -> Alcotest.fail "expected exactly two spans"

let test_sampling () =
  with_tracer ~sample:3 @@ fun () ->
  for i = 1 to 7 do
    T.with_trace "q" (fun () ->
        (* Sampled-out traces must suppress child events too. *)
        T.emit (T.Mark { label = string_of_int i }))
  done;
  let ids =
    List.sort_uniq compare
      (List.map (fun (e : T.event) -> e.trace_id) (T.events ()))
  in
  Alcotest.(check (list int)) "every 3rd trace by arrival order" [ 1; 4; 7 ] ids;
  let marks =
    List.filter
      (fun (e : T.event) -> match e.kind with T.Mark _ -> true | _ -> false)
      (T.events ())
  in
  check_int "one mark per sampled trace" 3 (List.length marks)

let test_disabled_is_silent () =
  T.configure ();
  T.disable ();
  check_bool "should_emit false when disabled" false (T.should_emit ());
  T.with_trace "q" (fun () -> T.emit (T.Mark { label = "x" }));
  check_int "nothing emitted" 0 (T.emitted ());
  check_int "nothing recorded" 0 (T.recorded ())

let test_emit_outside_trace_is_silent () =
  with_tracer @@ fun () ->
  T.emit (T.Mark { label = "stray" });
  check_int "events outside any trace are not recorded" 0 (T.emitted ())

let test_ring_drop_accounting () =
  let capacity = 16 in
  with_tracer ~capacity @@ fun () ->
  let worker () =
    T.with_trace "hammer" (fun () ->
        for i = 1 to 50 do
          T.emit (T.Mark { label = string_of_int i })
        done)
  in
  let spawned = List.init 3 (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join spawned;
  (* 4 domains x (50 marks + span open/close) = 208 claims on 16 slots. *)
  check_int "emitted counts every claim" 208 (T.emitted ());
  check_int "recorded saturates at capacity" capacity (T.recorded ());
  check_int "drops are exact: emitted = recorded + dropped" 208
    (T.recorded () + T.dropped ());
  check_int "events readable after join" capacity (List.length (T.events ()))

(* --- renderer round-trips on a real engine workload --- *)

let p0 =
  Pattern.Parse.pattern_exn
    "SEQ(AND(E1, E3) WITHIN 30, AND(E2, E4) WITHIN 30) ATLEAST 2 hours"

let t2 =
  Events.Tuple.of_list [ ("E1", 1026); ("E2", 1134); ("E3", 1044); ("E4", 1208) ]

let explain_workload () = ignore (Explain.Pipeline.explain [ p0 ] t2)

let test_engine_events_present () =
  with_tracer @@ fun () ->
  explain_workload ();
  let names =
    List.sort_uniq compare (List.map (fun (e : T.event) -> T.kind_name e.kind) (T.events ()))
  in
  List.iter
    (fun expected ->
      check_bool (expected ^ " present") true (List.mem expected names))
    [ "span.open"; "span.close"; "bnb.node"; "stn.push"; "stn.pop";
      "simplex.phase"; "simplex.outcome"; "bnb.incumbent" ];
  let span_names =
    List.filter_map
      (fun (e : T.event) ->
        match e.kind with T.Span_open { name; _ } -> Some name | _ -> None)
      (T.events ())
  in
  List.iter
    (fun expected ->
      check_bool ("span " ^ expected) true (List.mem expected span_names))
    [ "pipeline.explain"; "modification.explain"; "bnb.search"; "simplex.solve" ]

let test_jsonl_deterministic () =
  let run () =
    T.clear ();
    explain_workload ();
    check_int "ring did not overrun" 0 (T.dropped ());
    Report.Trace_json.jsonl ~timings:false (T.events ())
  in
  with_tracer @@ fun () ->
  let a = run () in
  let b = run () in
  check_bool "trace is non-trivial" true (String.length a > 200);
  check_str "timings-stripped JSONL byte-identical across runs" a b;
  check_bool "timings included by default" true
    (let timed = Report.Trace_json.jsonl (T.events ()) in
     String.length timed > String.length b)

(* The Table-1 explain as `whynot explain` runs it (a consistency check,
   then the pipeline), pinned: the event count and the digest of its
   timings-stripped JSONL. Any change to which spans open, in what order
   and under which parent shows up here. The search prices 3 leaves, cuts
   4 subtrees by its bound and solves the winner's LP once, at its end.
   The trace of a search that solved every leaf's LP (96 events, 3 leaf
   solves) turns into this one by dropping the 2 superseded leaves'
   simplex.solve subtrees (5 events each), moving the winner's to the end
   of bnb.search (after its last bnb.* event and the pops that unwind
   it) and renumbering the spans in the order they open. That trace in
   turn came from one that threaded a cutoff row into its leaves (207
   events: 16 leaf solves and a final re-solve), by replacing each cut
   node's subtree with one bnb.prune event and dropping the re-solve. *)
let test_table1_trace_pinned () =
  with_tracer @@ fun () ->
  ignore (Explain.Consistency.check [ p0 ]);
  ignore
    (Explain.Pipeline.explain ~strategy:Explain.Modification.Full [ p0 ] t2);
  let events = T.events () in
  let count p = List.length (List.filter (fun (e : T.event) -> p e.kind) events) in
  check_int "LP solves: the winner's" 1
    (count (function
      | T.Span_open { name; _ } -> String.equal name "simplex.solve"
      | _ -> false));
  check_int "bound prunes" 4
    (count (function T.Bnb_prune { reason = Bound; _ } -> true | _ -> false));
  check_int "Table-1 explain event count" 86 (List.length events);
  check_str "Table-1 explain JSONL digest" "a3332928888bea8df6e33c571622de2c"
    (Digest.to_hex
       (Digest.string (Report.Trace_json.jsonl ~timings:false events)))

(* The same explain on a cached query: the value is prepared by a first
   call, then explained again. The cached call's trace is the uncached one
   without the consistency check's span and without Φ's pushes inside
   bnb.search (the search copies the prepared closure), and nothing else
   moves: pinned by count and digest, and derived from the uncached trace
   event by event. *)
let test_table1_cached_trace_pinned () =
  let query = [ p0 ] in
  let nphi =
    List.length (Tcn.Encode.pattern_set query).Tcn.Encode.set_intervals
  in
  let shape (e : T.event) =
    match e.kind with
    | T.Span_open { name; _ } -> "open " ^ name
    | T.Span_close { name } -> "close " ^ name
    | T.Stn_push { depth; consistent } ->
        Printf.sprintf "push %d %b" depth consistent
    | T.Stn_pop { depth } -> Printf.sprintf "pop %d" depth
    | k -> T.kind_name k
  in
  with_tracer @@ fun () ->
  let run () =
    T.clear ();
    ignore
      (Explain.Pipeline.explain ~strategy:Explain.Modification.Full query t2);
    T.events ()
  in
  let uncached = run () in
  let cached = run () in
  check_int "cached explain event count" 50 (List.length cached);
  check_str "cached explain JSONL digest" "bf5ce6dbe553e8af8e9e6d4f30f8485d"
    (Digest.to_hex
       (Digest.string (Report.Trace_json.jsonl ~timings:false cached)));
  (* drop the consistency.check subtree, then Φ's pushes (the only pushes
     at depth <= |Φ| outside it) *)
  let rec strip inside = function
    | [] -> []
    | "open consistency.check" :: rest -> strip true rest
    | "close consistency.check" :: rest -> strip false rest
    | _ :: rest when inside -> strip inside rest
    | s :: rest -> (
        match String.split_on_char ' ' s with
        | [ "push"; d; _ ] when int_of_string d <= nphi -> strip inside rest
        | _ -> s :: strip inside rest)
  in
  Alcotest.(check (list string))
    "cached = uncached minus the consistency check and Φ's pushes"
    (strip false (List.map shape uncached))
    (List.map shape cached)

let test_chrome_export_valid () =
  with_tracer @@ fun () ->
  explain_workload ();
  let events = T.events () in
  match Report.Json.of_string (Report.Trace_json.chrome events) with
  | Error msg -> Alcotest.failf "chrome export is not valid JSON: %s" msg
  | Ok (Report.Json.List items) ->
      check_int "one chrome record per event" (List.length events)
        (List.length items);
      let get k item =
        match Report.Json.member k item with
        | Some v -> v
        | None -> Alcotest.failf "chrome record lacks %S" k
      in
      let phase item =
        match get "ph" item with
        | Report.Json.String s -> s
        | _ -> Alcotest.fail "ph is not a string"
      in
      let b = List.length (List.filter (fun i -> phase i = "B") items) in
      let e = List.length (List.filter (fun i -> phase i = "E") items) in
      check_bool "has duration events" true (b > 0);
      check_int "B/E balanced" b e;
      List.iter
        (fun item ->
          ignore (get "name" item);
          ignore (get "ts" item);
          ignore (get "pid" item);
          ignore (get "tid" item);
          check_bool "ph is B, E or i" true
            (List.mem (phase item) [ "B"; "E"; "i" ]))
        items
  | Ok _ -> Alcotest.fail "chrome export is not a JSON array"

let test_folded_export () =
  with_tracer @@ fun () ->
  explain_workload ();
  let folded = Report.Trace_json.folded (T.events ()) in
  let lines = String.split_on_char '\n' (String.trim folded) in
  check_bool "has stacks" true (lines <> [ "" ]);
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | None -> Alcotest.failf "folded line without weight: %S" line
      | Some i ->
          let stack = String.sub line 0 i in
          let weight = String.sub line (i + 1) (String.length line - i - 1) in
          check_bool "weight is a non-negative integer" true
            (match int_of_string_opt weight with Some n -> n >= 0 | None -> false);
          check_bool "stack is non-empty" true (String.length stack > 0))
    lines;
  check_bool "nested stack path present" true
    (List.exists
       (String.starts_with ~prefix:"pipeline.explain;modification.explain")
       lines)

(* --- the bench compare gate --- *)

let bench_doc counters =
  Report.Json.Obj
    [
      ("schema", Report.Json.String "whynot.bench/1");
      ( "sections",
        Report.Json.List
          [
            Report.Json.Obj
              [
                ("name", Report.Json.String "bnb");
                ("seconds", Report.Json.Float 1.0);
              ];
          ] );
      ( "metrics",
        Report.Json.Obj
          [
            ( "counters",
              Report.Json.Obj
                (List.map (fun (k, v) -> (k, Report.Json.Int v)) counters) );
            ("gauges", Report.Json.Obj []);
          ] );
    ]

let test_compare_gate () =
  let base = bench_doc [ ("simplex.pivots", 1000); ("bnb.nodes_expanded", 50) ] in
  (match Report.Bench_compare.run ~baseline:base ~current:base () with
  | Ok r ->
      check_bool "self-comparison passes" true (Report.Bench_compare.passed r);
      check_int "no regressions" 0 (List.length r.Report.Bench_compare.regressions);
      check_int "timings matched" 1 (List.length r.Report.Bench_compare.timings)
  | Error msg -> Alcotest.failf "parity compare failed: %s" msg);
  let regressed =
    bench_doc [ ("simplex.pivots", 1100); ("bnb.nodes_expanded", 50) ]
  in
  (match Report.Bench_compare.run ~baseline:base ~current:regressed () with
  | Ok r ->
      check_bool "10%% pivot growth fails the 2%% gate" false
        (Report.Bench_compare.passed r);
      check_int "exactly one regression" 1
        (List.length r.Report.Bench_compare.regressions);
      check_bool "regression names the counter" true
        ((List.hd r.Report.Bench_compare.regressions).Report.Bench_compare.key
        = "simplex.pivots")
  | Error msg -> Alcotest.failf "regression compare failed: %s" msg);
  (match Report.Bench_compare.run ~threshold:15.0 ~baseline:base ~current:regressed () with
  | Ok r ->
      check_bool "wider threshold admits the same delta" true
        (Report.Bench_compare.passed r)
  | Error msg -> Alcotest.failf "threshold compare failed: %s" msg);
  (match
     Report.Bench_compare.run ~baseline:base
       ~current:(bench_doc [ ("simplex.pivots", 900); ("bnb.nodes_expanded", 50) ])
       ()
   with
  | Ok r ->
      check_bool "improvements do not gate" true (Report.Bench_compare.passed r);
      check_int "improvement reported" 1
        (List.length r.Report.Bench_compare.improvements)
  | Error msg -> Alcotest.failf "improvement compare failed: %s" msg);
  match
    Report.Bench_compare.run ~baseline:(Report.Json.Obj []) ~current:base ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-bench document accepted"

let suite =
  ( "trace",
    [
      Alcotest.test_case "span tree structure" `Quick test_span_tree;
      Alcotest.test_case "exception safety" `Quick test_exception_safety;
      Alcotest.test_case "nested with_trace joins" `Quick test_nested_with_trace;
      Alcotest.test_case "deterministic sampling" `Quick test_sampling;
      Alcotest.test_case "disabled tracer is silent" `Quick test_disabled_is_silent;
      Alcotest.test_case "emit outside trace is silent" `Quick
        test_emit_outside_trace_is_silent;
      Alcotest.test_case "ring drop accounting" `Quick test_ring_drop_accounting;
      Alcotest.test_case "engine events present" `Quick test_engine_events_present;
      Alcotest.test_case "jsonl determinism" `Quick test_jsonl_deterministic;
      Alcotest.test_case "chrome export valid" `Quick test_chrome_export_valid;
      Alcotest.test_case "folded export" `Quick test_folded_export;
      Alcotest.test_case "bench compare gate" `Quick test_compare_gate;
      Alcotest.test_case "Table-1 cached explain trace pinned" `Quick
        test_table1_cached_trace_pinned;
      Alcotest.test_case "Table-1 explain trace pinned" `Quick
        test_table1_trace_pinned;
    ] )
