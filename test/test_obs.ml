open Whynot

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh
    && (String.equal (String.sub haystack i nn) needle || go (i + 1))
  in
  nn = 0 || go 0

(* Global registry: each test resets all metrics first; names are
   namespaced under "test." to avoid colliding with engine metrics. *)

let test_counter_semantics () =
  let c = Obs.counter "test.counter" in
  Obs.reset ();
  check_int "starts at zero" 0 (Obs.value c);
  Obs.incr c;
  Obs.add c 5;
  check_int "incr + add" 6 (Obs.value c);
  (* get-or-create returns the same cell *)
  let c' = Obs.counter "test.counter" in
  Obs.incr c';
  check_int "same cell via re-registration" 7 (Obs.value c);
  check_bool "find_counter" true (Obs.find_counter "test.counter" = Some 7);
  check_bool "find_counter missing" true (Obs.find_counter "test.nosuch" = None)

let test_kind_clash_rejected () =
  ignore (Obs.counter "test.clash");
  check_bool "gauge over counter name raises" true
    (try ignore (Obs.gauge "test.clash"); false with Invalid_argument _ -> true);
  check_bool "histogram over counter name raises" true
    (try ignore (Obs.histogram "test.clash"); false with Invalid_argument _ -> true)

let test_gauge_semantics () =
  let g = Obs.gauge "test.gauge" in
  Obs.reset ();
  Obs.gauge_set g 5;
  check_int "set" 5 (Obs.gauge_value g);
  Obs.gauge_max g 3;
  check_int "max keeps larger" 5 (Obs.gauge_value g);
  Obs.gauge_max g 9;
  check_int "max raises" 9 (Obs.gauge_value g)

let find_hist name (snap : Obs.snapshot) =
  match List.assoc_opt name snap.histograms with
  | Some h -> h
  | None -> Alcotest.failf "histogram %s not in snapshot" name

let test_histogram_buckets () =
  let h = Obs.histogram ~buckets:[| 10; 20 |] "test.hist" in
  Obs.reset ();
  List.iter (Obs.observe h) [ 5; 10; 15; 99 ];
  let hs = find_hist "test.hist" (Obs.snapshot ()) in
  check_int "count" 4 hs.Obs.h_count;
  check_int "sum" 129 hs.Obs.h_sum;
  Alcotest.(check (list (pair (option int) int)))
    "bucket placement (le 10 / le 20 / inf)"
    [ (Some 10, 2); (Some 20, 1); (None, 1) ]
    hs.Obs.h_buckets;
  check_bool "non-increasing bounds rejected" true
    (try ignore (Obs.histogram ~buckets:[| 5; 5 |] "test.hist2"); false
     with Invalid_argument _ -> true)

let test_find_accessors () =
  let g = Obs.gauge "test.gauge" in
  let h = Obs.histogram ~buckets:[| 10; 20 |] "test.hist" in
  Obs.reset ();
  Obs.gauge_set g 42;
  Obs.observe h 15;
  check_bool "find_gauge" true (Obs.find_gauge "test.gauge" = Some 42);
  check_bool "find_gauge missing" true (Obs.find_gauge "test.nosuch" = None);
  (match Obs.find_histogram "test.hist" with
  | Some hs ->
      check_int "find_histogram count" 1 hs.Obs.h_count;
      check_int "find_histogram sum" 15 hs.Obs.h_sum
  | None -> Alcotest.fail "find_histogram missed a registered histogram");
  check_bool "find_histogram missing" true
    (Obs.find_histogram "test.nosuch" = None);
  check_bool "find_histogram ignores other kinds" true
    (Obs.find_histogram "test.gauge" = None)

let test_span_latency_histogram () =
  let latspan = Obs.span ~buckets:[| 1_000; 1_000_000 |] "test.latspan" in
  Obs.reset ();
  let out = Obs.time latspan (fun () -> 99) in
  check_int "wrapped value returned" 99 out;
  (match Obs.find_histogram "test.latspan.duration_us" with
  | Some hs ->
      check_int "one duration observed" 1 hs.Obs.h_count;
      check_int "derived histogram keeps the requested bounds" 2
        (List.length (List.filter (fun (b, _) -> b <> None) hs.Obs.h_buckets))
  | None -> Alcotest.fail "span ~buckets did not register");
  ignore (Obs.time latspan (fun () -> 0));
  (match Obs.find_histogram "test.latspan.duration_us" with
  | Some hs -> check_int "durations accumulate" 2 hs.Obs.h_count
  | None -> Alcotest.fail "histogram vanished");
  (* plain spans never grow a histogram *)
  ignore (Obs.time (Obs.span "test.plainspan") (fun () -> ()));
  check_bool "no histogram without buckets" true
    (Obs.find_histogram "test.plainspan.duration_us" = None)

let test_log () =
  let captured = Buffer.create 256 in
  Obs.Log.set_sink (Buffer.add_string captured);
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.reset_sink ();
      Obs.Log.set_level None)
    (fun () ->
      Obs.Log.set_level None;
      Obs.Log.emit Warn "test.silent" [];
      check_int "disabled level writes nothing" 0 (Buffer.length captured);
      check_bool "log.lines untouched when filtered" true
        (Obs.find_counter "log.lines" = Some 0);
      Obs.Log.set_level (Some Obs.Log.Warn);
      check_bool "warn enabled at warn" true (Obs.Log.enabled Obs.Log.Warn);
      check_bool "error enabled at warn" true (Obs.Log.enabled Obs.Log.Error);
      check_bool "info filtered at warn" false (Obs.Log.enabled Obs.Log.Info);
      Obs.Log.emit Info "test.filtered" [];
      check_int "info filtered writes nothing" 0 (Buffer.length captured);
      Obs.Log.emit Warn "test.event"
        [
          ("text", Obs.Log.Str "a\"b\nc");
          ("n", Obs.Log.Num 7);
          ("x", Obs.Log.Flt 1.5);
          ("flag", Obs.Log.Bool true);
        ];
      let line = Buffer.contents captured in
      check_bool "one JSON line emitted" true
        (String.length line > 0 && line.[String.length line - 1] = '\n');
      check_bool "level field" true
        (contains line "\"level\":\"warn\"");
      check_bool "event field" true
        (contains line "\"event\":\"test.event\"");
      check_bool "string values escaped" true
        (contains line "\"text\":\"a\\\"b\\nc\"");
      check_bool "numeric fields" true (contains line "\"n\":7");
      check_bool "float fields" true (contains line "\"x\":1.5");
      check_bool "bool fields" true (contains line "\"flag\":true");
      check_bool "line counted" true (Obs.find_counter "log.lines" = Some 1);
      check_bool "level_of_string round-trips" true
        (Obs.Log.level_of_string "debug" = Some Obs.Log.Debug
        && Obs.Log.level_of_string "warning" = Some Obs.Log.Warn
        && Obs.Log.level_of_string "loud" = None);
      check_bool "current level readable" true
        (Obs.Log.level () = Some Obs.Log.Warn))

let test_runtime_refresh () =
  Obs.Runtime.refresh ();
  check_bool "heap words gauge populated" true
    (match Obs.find_gauge "runtime.gc.heap_words" with
    | Some n -> n > 0
    | None -> false);
  check_bool "minor collections gauge present" true
    (Obs.find_gauge "runtime.gc.minor_collections" <> None);
  check_bool "uptime monotone and nonnegative" true
    (match Obs.find_gauge "runtime.uptime_ms" with
    | Some n -> n >= 0
    | None -> false);
  check_bool "trace capacity mirrored" true
    (Obs.find_gauge "trace.capacity" <> None)

(* Cumulative GC word counts on a long-lived process exceed the float
   range int_of_float is defined on; the gauges go through the
   saturating conversion instead. *)
let test_saturating_conversion () =
  let s = Obs.Runtime.saturating_int_of_float in
  check_int "nan maps to 0" 0 (s Float.nan);
  check_int "plain values truncate as int_of_float" 42 (s 42.9);
  check_int "negative values truncate as int_of_float" (-7) (s (-7.2));
  check_bool "1e30 clamps to max_int" true (s 1e30 = max_int);
  check_bool "-1e30 clamps to min_int" true (s (-1e30) = min_int);
  check_bool "infinity clamps to max_int" true (s Float.infinity = max_int);
  check_bool "neg infinity clamps to min_int" true
    (s Float.neg_infinity = min_int);
  check_bool "float max_int boundary stays in range" true
    (s (float_of_int max_int) = max_int);
  (* refresh itself must survive whatever quick_stat reports *)
  Obs.Runtime.refresh ();
  check_bool "minor words gauge populated via saturation" true
    (Obs.find_gauge "runtime.gc.minor_words" <> None)

(* Rt_events attribution edges, driven through the synthetic-inject
   path: the real recording pipeline (ring, split counters, histogram,
   gauges) without depending on actual GC timing. *)
let test_rt_overlap_edges () =
  Obs.Rt_events.reset_for_test ();
  Obs.reset ();
  let us = 1000 in
  (* pause [5us, 15us) straddles the span boundary at 10us: only the
     inside half attributes *)
  Obs.Rt_events.inject_for_test ~dom:0 ~cls:Obs.Rt_events.Minor
    ~t0_ns:(5 * us) ~t1_ns:(15 * us);
  let window = Obs.Rt_events.pauses_between ~t0_ns:(10 * us) ~t1_ns:(30 * us) () in
  check_int "straddling pause clips to the span" 5
    (Obs.Rt_events.overlap_us window ~t0_ns:(10 * us) ~t1_ns:(30 * us));
  (* the same pause against a span entirely after it: zero attribution *)
  let later = Obs.Rt_events.pauses_between ~t0_ns:(40 * us) ~t1_ns:(60 * us) () in
  check_int "no pauses intersect the later span" 0 (List.length later);
  check_int "pause between spans attributes nothing" 0
    (Obs.Rt_events.overlap_us later ~t0_ns:(40 * us) ~t1_ns:(60 * us));
  (* overlap_us re-clips: a sub-window of the query window *)
  let full = Obs.Rt_events.pauses_between ~t0_ns:0 ~t1_ns:(100 * us) () in
  check_int "sub-window overlap re-clips" 3
    (Obs.Rt_events.overlap_us full ~t0_ns:(12 * us) ~t1_ns:(20 * us));
  Obs.Rt_events.reset_for_test ()

let test_rt_multi_domain_union () =
  Obs.Rt_events.reset_for_test ();
  Obs.reset ();
  let us = 1000 in
  (* concurrent pauses on two domains overlap in wall-clock; the merged
     disjoint list must not double-count the shared microseconds *)
  Obs.Rt_events.inject_for_test ~dom:0 ~cls:Obs.Rt_events.Major
    ~t0_ns:(10 * us) ~t1_ns:(20 * us);
  Obs.Rt_events.inject_for_test ~dom:1 ~cls:Obs.Rt_events.Minor
    ~t0_ns:(15 * us) ~t1_ns:(25 * us);
  let pauses = Obs.Rt_events.pauses_between ~t0_ns:0 ~t1_ns:(100 * us) () in
  check_int "overlapping cross-domain pauses merge" 1 (List.length pauses);
  check_int "union of 10+10 with 5 shared is 15" 15
    (Obs.Rt_events.overlap_us pauses ~t0_ns:0 ~t1_ns:(100 * us));
  (* summaries keep the per-domain split and sort by domain *)
  (match Obs.Rt_events.summaries () with
  | [ d0; d1 ] ->
      check_int "domain 0 first" 0 d0.Obs.Rt_events.d_dom;
      check_int "domain 1 second" 1 d1.Obs.Rt_events.d_dom;
      check_int "one pause on domain 0" 1 d0.Obs.Rt_events.d_pauses;
      check_int "major split on domain 0" 1 d0.Obs.Rt_events.d_major;
      check_int "minor split on domain 1" 1 d1.Obs.Rt_events.d_minor
  | l -> Alcotest.failf "expected two domains, got %d" (List.length l));
  check_bool "per-domain max-pause gauges fed" true
    (Obs.find_gauge "runtime.dom.0.gc.max_pause_us" = Some 10
    && Obs.find_gauge "runtime.dom.1.gc.max_pause_us" = Some 10);
  Obs.Rt_events.reset_for_test ()

let test_rt_ring_drop_accounting () =
  Obs.Rt_events.reset_for_test ~ring_capacity:4 ();
  Obs.reset ();
  let us = 1000 in
  for i = 0 to 9 do
    Obs.Rt_events.inject_for_test ~dom:0 ~cls:Obs.Rt_events.Minor
      ~t0_ns:(i * 10 * us)
      ~t1_ns:(((i * 10) + 2) * us)
  done;
  check_bool "runtime.events.dropped is exact" true
    (Obs.find_counter "runtime.events.dropped" = Some 6);
  (match Obs.Rt_events.summaries () with
  | [ d ] ->
      check_int "all pauses counted" 10 d.Obs.Rt_events.d_pauses;
      check_int "exact eviction count" 6 d.Obs.Rt_events.d_dropped;
      check_int "ring keeps the newest capacity entries" 4
        (List.length d.Obs.Rt_events.d_recent);
      (match d.Obs.Rt_events.d_recent with
      | first :: _ ->
          check_int "oldest surviving entry is pause #6" (60 * us)
            first.Obs.Rt_events.p_start_ns
      | [] -> Alcotest.fail "empty ring");
      check_int "minor split counts every pause" 10 d.Obs.Rt_events.d_minor
  | l -> Alcotest.failf "expected one domain, got %d" (List.length l));
  (match Obs.find_histogram "runtime.gc.pause.duration_us" with
  | Some h -> check_int "pause histogram fed through the real path" 10 h.Obs.h_count
  | None -> Alcotest.fail "pause histogram missing");
  (* evicted pauses no longer attribute *)
  let early = Obs.Rt_events.pauses_between ~t0_ns:0 ~t1_ns:(50 * us) () in
  check_int "evicted pauses are gone from attribution" 0 (List.length early);
  Obs.Rt_events.reset_for_test
    ~ring_capacity:Obs.Rt_events.default_ring_capacity ()

(* End to end against the real runtime: start the poller, force GC
   work, and require decoded pauses with a live calibration. *)
let test_rt_live_decode () =
  Obs.reset ();
  Obs.Rt_events.reset_for_test ();
  Obs.Rt_events.start ();
  Fun.protect ~finally:Obs.Rt_events.stop (fun () ->
      check_bool "running after start" true (Obs.Rt_events.running ());
      for _ = 1 to 3 do
        Gc.full_major ()
      done;
      ignore (Obs.Rt_events.poll_now ()));
  check_bool "stopped after stop" false (Obs.Rt_events.running ());
  let total =
    List.fold_left
      (fun acc d -> acc + d.Obs.Rt_events.d_pauses)
      0
      (Obs.Rt_events.summaries ())
  in
  check_bool "live GC pauses decoded" true (total > 0);
  check_bool "pauses stay attributable after stop" true
    (Obs.Rt_events.active ());
  check_bool "recorded pauses carry positive wall-clock ends" true
    (List.for_all
       (fun d ->
         List.for_all
           (fun p ->
             p.Obs.Rt_events.p_end_ns >= p.Obs.Rt_events.p_start_ns
             && p.Obs.Rt_events.p_start_ns > 0)
           d.Obs.Rt_events.d_recent)
       (Obs.Rt_events.summaries ()));
  Obs.Rt_events.reset_for_test ();
  check_bool "reset clears attribution" false (Obs.Rt_events.active ())

let span_count name (snap : Obs.snapshot) =
  match List.assoc_opt name snap.spans with
  | Some s -> s.Obs.s_count
  | None -> Alcotest.failf "span %s not in snapshot" name

let test_span_semantics () =
  let s = Obs.span "test.span" in
  Obs.reset ();
  let r = Obs.time s (fun () -> 41 + 1) in
  check_int "time returns the result" 42 r;
  check_int "span counted" 1 (span_count "test.span" (Obs.snapshot ()));
  check_bool "exception propagates" true
    (try ignore (Obs.time s (fun () -> raise Exit)); false
     with Exit -> true);
  check_int "raising span still counted" 2 (span_count "test.span" (Obs.snapshot ()))

let json_no_timers () =
  (* Latency histograms (".duration_us") record wall-clock like spans do,
     so they are stripped alongside timers for determinism checks. *)
  let snap = Obs.snapshot () in
  let snap =
    {
      snap with
      Obs.histograms =
        List.filter
          (fun (name, _) ->
            not (String.ends_with ~suffix:".duration_us" name))
          snap.Obs.histograms;
    }
  in
  Report.Json.to_string (Report.Obs_json.render ~timers:false snap)

(* The same deterministic workload twice, from a reset registry each
   time: identical snapshots (spans and latency histograms excluded —
   they time wall-clock). *)
let test_snapshot_determinism () =
  let p0 =
    Pattern.Parse.pattern_exn
      "SEQ(AND(E1, E3) WITHIN 30, AND(E2, E4) WITHIN 30) ATLEAST 2 hours"
  in
  let t2 =
    Events.Tuple.of_list [ ("E1", 1026); ("E2", 1134); ("E3", 1044); ("E4", 1208) ]
  in
  let workload () =
    Obs.reset ();
    ignore (Explain.Pipeline.explain [ p0 ] t2);
    ignore (Explain.Consistency.check ~strategy:Explain.Consistency.Pruned [ p0 ]);
    json_no_timers ()
  in
  let s1 = workload () in
  let s2 = workload () in
  check_str "snapshot identical across two identical runs" s1 s2;
  check_bool "snapshot mentions simplex.pivots" true
    (let json = Report.Obs_json.snapshot ~timers:false () in
     match Report.Json.member "counters" json with
     | Some counters -> (
         match Report.Json.member "simplex.pivots" counters with
         | Some (Report.Json.Int n) -> n > 0
         | _ -> false)
     | None -> false);
  check_bool "timers excluded on demand" true
    (Report.Json.member "spans" (Report.Obs_json.snapshot ~timers:false ()) = None);
  check_bool "timers included by default" true
    (Report.Json.member "spans" (Report.Obs_json.snapshot ()) <> None)

(* A span in flight across a reset must not fold its pre-reset start
   time into the zeroed cell. *)
let test_reset_during_span () =
  let s = Obs.span "test.reset_span" in
  Obs.reset ();
  Obs.time s (fun () -> Obs.reset ());
  check_int "straddling span records nothing"
    0 (span_count "test.reset_span" (Obs.snapshot ()));
  ignore (Obs.time s (fun () -> ()));
  check_int "next span records normally"
    1 (span_count "test.reset_span" (Obs.snapshot ()))

(* Counter updates are atomic: concurrent increments from Bulk's domains
   are lossless. *)
let test_merge_under_domains () =
  let c = Obs.counter "test.domains" in
  Obs.reset ();
  let trace =
    Events.Trace.of_list
      (List.init 64 (fun i ->
           (Printf.sprintf "t%02d" i, Events.Tuple.of_list [ ("A", i) ])))
  in
  let results =
    Cep.Bulk.map_tuples ~domains:4
      (fun _id tuple ->
        Obs.incr c;
        Events.Tuple.cardinal tuple)
      trace
  in
  check_int "all tuples mapped" 64 (List.length results);
  check_int "no lost increments under 4 domains" 64 (Obs.value c)

(* Raw domains hammering one cell of each metric kind: every update
   lands (counters/histograms are lossless; gauge_max keeps the max). *)
let test_hammer_under_domains () =
  let c = Obs.counter "test.hammer.counter" in
  let g = Obs.gauge "test.hammer.gauge" in
  let h = Obs.histogram ~buckets:[| 10 |] "test.hammer.hist" in
  Obs.reset ();
  let per_domain = 25_000 in
  let worker base () =
    for i = 1 to per_domain do
      Obs.incr c;
      Obs.gauge_max g ((base * per_domain) + i);
      Obs.observe h (i mod 20)
    done
  in
  let spawned = List.init 3 (fun k -> Domain.spawn (worker (k + 1))) in
  worker 0 ();
  List.iter Domain.join spawned;
  check_int "counter lossless under 4 domains" (4 * per_domain) (Obs.value c);
  check_int "gauge_max kept the maximum" (4 * per_domain) (Obs.gauge_value g);
  let hs = find_hist "test.hammer.hist" (Obs.snapshot ()) in
  check_int "histogram lossless under 4 domains" (4 * per_domain) hs.Obs.h_count

(* Prometheus requires the +Inf cumulative to equal _count in every
   exposition. [observe] bumps a bucket cell before h_count, so a
   snapshot racing an observe on another domain must derive the count
   from the cells it actually read, not from h_count. *)
let test_snapshot_invariant_under_domains () =
  let h = Obs.histogram ~buckets:[| 5; 10 |] "test.race.hist" in
  Obs.reset ();
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        let i = ref 0 in
        while not (Atomic.get stop) do
          Stdlib.incr i;
          Obs.observe h (!i mod 20)
        done)
  in
  for _ = 1 to 2_000 do
    match Obs.find_histogram "test.race.hist" with
    | None -> Alcotest.fail "histogram missing"
    | Some hs ->
        let bucket_sum =
          List.fold_left (fun acc (_, n) -> acc + n) 0 hs.Obs.h_buckets
        in
        check_int "+Inf cumulative equals _count" hs.Obs.h_count bucket_sum
  done;
  Atomic.set stop true;
  Domain.join writer

(* Every metric registers at module initialisation (or when a service
   creates its shards), never on the request path: the registry's names
   after [Service.create] equal its names after one ingest, one scrape,
   one /debug/slow and one explain. Its suite runs first, so no other
   test has already registered a lazily created name. *)
let registry_names () =
  let s = Obs.snapshot () in
  List.map fst s.counters @ List.map fst s.gauges @ List.map fst s.histograms
  @ List.map fst s.spans
  |> List.sort String.compare

let test_no_request_path_registration () =
  let q = [ Pattern.Parse.pattern_exn "SEQ(A, B) WITHIN 20" ] in
  let service = Serve.Service.create q in
  let before = registry_names () in
  let server = Serve.Http.listen ~port:0 () in
  let d =
    Domain.spawn (fun () ->
        Serve.Http.serve server (Serve.Service.handle service))
  in
  Fun.protect
    ~finally:(fun () ->
      Serve.Http.stop server;
      Domain.join d)
    (fun () ->
      let port = Serve.Http.port server in
      let ok label = function
        | Ok (200, _) -> ()
        | _ -> Alcotest.failf "%s failed" label
      in
      ok "ingest" (Serve.Http.post ~port "/ingest" "A,1,a\nB,5,b\n");
      ok "scrape" (Serve.Http.get ~port "/metrics");
      ok "/debug/slow" (Serve.Http.get ~port "/debug/slow"));
  ignore
    (Explain.Pipeline.explain q (Events.Tuple.of_list [ ("A", 0); ("B", 50) ]));
  Alcotest.(check (list string))
    "no name registered on the request path" before (registry_names ())

let registry_suite =
  ( "registry",
    [
      Alcotest.test_case "no registration on the request path" `Quick
        test_no_request_path_registration;
    ] )

let suite =
  ( "obs",
    [
      Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
      Alcotest.test_case "kind clash rejected" `Quick test_kind_clash_rejected;
      Alcotest.test_case "gauge semantics" `Quick test_gauge_semantics;
      Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
      Alcotest.test_case "span semantics" `Quick test_span_semantics;
      Alcotest.test_case "find accessors" `Quick test_find_accessors;
      Alcotest.test_case "span latency histogram" `Quick
        test_span_latency_histogram;
      Alcotest.test_case "structured log" `Quick test_log;
      Alcotest.test_case "runtime refresh" `Quick test_runtime_refresh;
      Alcotest.test_case "saturating word-count conversion" `Quick
        test_saturating_conversion;
      Alcotest.test_case "rt_events overlap edges" `Quick test_rt_overlap_edges;
      Alcotest.test_case "rt_events multi-domain union" `Quick
        test_rt_multi_domain_union;
      Alcotest.test_case "rt_events ring drop accounting" `Quick
        test_rt_ring_drop_accounting;
      Alcotest.test_case "rt_events live decode" `Quick test_rt_live_decode;
      Alcotest.test_case "snapshot determinism" `Quick test_snapshot_determinism;
      Alcotest.test_case "reset during span" `Quick test_reset_during_span;
      Alcotest.test_case "merge under domains" `Quick test_merge_under_domains;
      Alcotest.test_case "hammer under domains" `Quick test_hammer_under_domains;
      Alcotest.test_case "snapshot invariant under domains" `Quick
        test_snapshot_invariant_under_domains;
    ] )
