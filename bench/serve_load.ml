(* The serve bench workload: boots the telemetry service in-process on an
   ephemeral port, replays a generated stream through POST /ingest while a
   second domain scrapes /metrics concurrently, then measures quiet-stream
   scrape cost. Doubles as the CI smoke check that the service mode boots:
   the scraped exposition must parse and its ingest counter must match the
   events fed exactly.

   Isolated in its own module so the file that spawns domains carries no
   module-level mutable state (domain-safety rule): everything mutable
   here is function-local or an Atomic. *)

open Whynot
module E = Experiments

let run ~events ~scrapes =
  let query =
    match Pattern.Parse.pattern_set "SEQ(E1, E2) WITHIN 20" with
    | Ok q -> q
    | Error msg -> failwith msg
  in
  let ingested0 =
    Option.value ~default:0 (Obs.find_counter "serve.ingest.lines")
  in
  let service = Serve.Service.create ~max_partials:512 query in
  let server = Serve.Http.listen ~port:0 () in
  let port = Serve.Http.port server in
  let http_domain =
    Domain.spawn (fun () ->
        Serve.Http.serve server (Serve.Service.handle service))
  in
  let stop_scraper = Atomic.make false in
  let scraper =
    Domain.spawn (fun () ->
        let n = ref 0 in
        while not (Atomic.get stop_scraper) do
          match Serve.Http.get ~port "/metrics" with
          | Ok (200, _) -> Stdlib.incr n
          | Ok _ | Error _ -> ()
        done;
        !n)
  in
  let batch = 500 in
  let buf = Buffer.create (batch * 16) in
  let sent = ref 0 in
  let (), ingest_dt =
    E.Harness.time (fun () ->
        while !sent < events do
          Buffer.clear buf;
          let k = min batch (events - !sent) in
          for i = 0 to k - 1 do
            let seq = !sent + i in
            (* Alternating E1/E2 with strictly increasing timestamps: a
               steady stream of in-window matches under bounded partials. *)
            Buffer.add_string buf
              (Printf.sprintf "E%d,%d,s%d\n" (1 + (seq mod 2)) (seq * 3) seq)
          done;
          (match Serve.Http.post ~port "/ingest" (Buffer.contents buf) with
          | Ok (200, _) -> ()
          | Ok (st, body) ->
              failwith (Printf.sprintf "ingest HTTP %d: %s" st body)
          | Error msg -> failwith ("ingest: " ^ msg));
          sent := !sent + k
        done)
  in
  Atomic.set stop_scraper true;
  let concurrent_scrapes = Domain.join scraper in
  let last_body = ref "" in
  let (), scrape_dt =
    E.Harness.time (fun () ->
        for _ = 1 to scrapes do
          match Serve.Http.get ~port "/metrics" with
          | Ok (200, body) -> last_body := body
          | Ok (st, _) -> failwith (Printf.sprintf "scrape HTTP %d" st)
          | Error msg -> failwith ("scrape: " ^ msg)
        done)
  in
  Serve.Http.stop server;
  Domain.join http_domain;
  let ingested =
    Option.value ~default:0 (Obs.find_counter "serve.ingest.lines")
    - ingested0
  in
  if ingested <> events then
    failwith
      (Printf.sprintf "serve: fed %d event(s) but serve.ingest.lines says %d"
         events ingested);
  (match Report.Prom_text.parse_values !last_body with
  | Error msg -> failwith ("serve: /metrics did not parse: " ^ msg)
  | Ok samples -> (
      let find name =
        List.find_map
          (fun (n, v) -> if String.equal n name then Some v else None)
          samples
      in
      match find "whynot_serve_ingest_lines" with
      | Some v when int_of_float v - ingested0 = events -> ()
      | Some v ->
          failwith
            (Printf.sprintf
               "serve: scraped whynot_serve_ingest_lines %.0f, expected %d" v
               (ingested0 + events))
      | None -> failwith "serve: whynot_serve_ingest_lines missing from scrape"));
  let matches = Option.value ~default:0 (Obs.find_counter "serve.matches") in
  let ingest_us = ingest_dt /. float_of_int events *. 1e6 in
  let scrape_us = scrape_dt /. float_of_int scrapes *. 1e6 in
  Format.printf
    "ingest: %d event(s) in %.3f s (%.1f us/event, %d match(es)) with %d \
     concurrent scrape(s)@.scrape: %d quiet scrape(s), %.1f us each@."
    events ingest_dt ingest_us matches concurrent_scrapes scrapes scrape_us;
  [
    ("events", Report.Json.Int events);
    ("ingest_seconds", Report.Json.Float ingest_dt);
    ("ingest_us_per_event", Report.Json.Float ingest_us);
    ("matches", Report.Json.Int matches);
    ("concurrent_scrapes", Report.Json.Int concurrent_scrapes);
    ("quiet_scrapes", Report.Json.Int scrapes);
    ("scrape_us_per_call", Report.Json.Float scrape_us);
  ]

(* --- serve_mt, serve_trace, serve_gc: one soak, three toggles ---

   Each section replays a keyed stream twice through [soak] and compares
   the two replays. serve_mt toggles the topology: the sequential
   baseline (one HTTP worker over one shard, one client) against the
   pooled stack (one worker and one shard per core, 2 to 8, with one
   keep-alive client domain per worker). serve_trace and serve_gc replay
   the pooled stack with tail capture, or runtime-events profiling, off
   (the deployment default) and then on. Each section's checks probe its
   second replay's server while it is still up.

   serve_mt times every POST client-side and gates the merged p99; its
   >=3x throughput gate, like the overhead gates of the other two, is a
   wall-clock comparison and arms only on >=4 cores at standard scale —
   on fewer cores the client domains time-share with the server and
   scheduler noise swamps what the gate measures. *)

let mt_query () =
  match Pattern.Parse.pattern_set "SEQ(E1, E2) WITHIN 20" with
  | Ok q -> q
  | Error msg -> failwith msg

let mt_batch = 200
let keys_per_client = 4

(* Client [c]'s lines [seq0, seq0+k): 4 interleaved key streams, each
   alternating E1/E2 on strictly increasing timestamps — every key is an
   independent steady stream of in-window matches. *)
let mt_body ~client ~seq0 ~k =
  let buf = Buffer.create (k * 24) in
  for i = 0 to k - 1 do
    let seq = seq0 + i in
    let key = Printf.sprintf "c%dk%d" client (seq mod keys_per_client) in
    let step = seq / keys_per_client in
    Buffer.add_string buf
      (Printf.sprintf "E%d,%d,%s-%d,%s\n"
         (1 + (step mod 2))
         (step * 3) key step key)
  done;
  Buffer.contents buf

(* Feed [events] lines over one keep-alive connection, timing each POST.
   Returns the per-request latencies in seconds, most recent first. *)
let mt_feed ~port ~client ~events =
  let conn = Serve.Http.Client.connect ~port in
  let lats = ref [] in
  let sent = ref 0 in
  while !sent < events do
    let k = min mt_batch (events - !sent) in
    let body = mt_body ~client ~seq0:!sent ~k in
    let t0 = Unix.gettimeofday () in
    (match Serve.Http.Client.post conn "/ingest" body with
    | Ok (200, _) -> ()
    | Ok (st, b) -> failwith (Printf.sprintf "serve_mt ingest HTTP %d: %s" st b)
    | Error msg -> failwith ("serve_mt ingest: " ^ msg));
    lats := (Unix.gettimeofday () -. t0) :: !lats;
    sent := !sent + k
  done;
  Serve.Http.Client.close conn;
  !lats

(* One replay: the service behind [workers] HTTP workers over as many
   shards, one keep-alive client domain per worker feeding [per_client]
   lines, then [check port] while the server is still up. Returns the
   check's result, every POST's latency and the feed's wall time. *)
let soak ~check ~workers ~per_client =
  let service =
    Serve.Service.create ~max_partials:512 ~shards:workers (mt_query ())
  in
  let server = Serve.Http.listen ~port:0 () in
  let port = Serve.Http.port server in
  let http =
    Domain.spawn (fun () ->
        Serve.Http.serve ~workers server (Serve.Service.handle service))
  in
  let latencies, dt =
    E.Harness.time (fun () ->
        List.init workers (fun c ->
            Domain.spawn (fun () ->
                mt_feed ~port ~client:(c + 1) ~events:per_client))
        |> List.concat_map Domain.join)
  in
  let checked = check port in
  Serve.Http.stop server;
  Domain.join http;
  (checked, latencies, dt)

(* The pooled stack every section replays: [(cores, workers,
   per_client)] for [events] lines. *)
let pool_shape ~events =
  let cores = Domain.recommended_domain_count () in
  let workers = max 2 (min cores 8) in
  (cores, workers, events / workers)

let shape_json ~events ~cores ~workers =
  [
    ("events", Report.Json.Int events);
    ("cores", Report.Json.Int cores);
    ("workers", Report.Json.Int workers);
    ("shards", Report.Json.Int workers);
  ]

let wall_gate ~gate ~cores verdict =
  if not gate then "skipped (sub-standard scale)"
  else if cores < 4 then
    Printf.sprintf "skipped (%d core(s) available, need 4)" cores
  else verdict ()

(* serve_trace and serve_gc: the second replay's cost over the first,
   gated at [budget_pct]; prints both replays and returns the JSON
   fields. *)
let overhead_fields ~section ~label ~what ~budget_pct ~gate ~cores ~events
    off_dt on_dt =
  let overhead_pct = (on_dt -. off_dt) /. off_dt *. 100.0 in
  Format.printf
    "%s off: %d event(s) in %.3f s@.%s on:  %d event(s) in %.3f s — overhead \
     %+.2f%%@."
    label events off_dt label events on_dt overhead_pct;
  let overhead_gate =
    wall_gate ~gate ~cores (fun () ->
        if overhead_pct > budget_pct then
          failwith
            (Printf.sprintf "%s: %s %+.2f%% over budget %.0f%%" section what
               overhead_pct budget_pct)
        else
          Printf.sprintf "passed (%+.2f%% <= %.0f%%)" overhead_pct budget_pct)
  in
  Format.printf "overhead gate: %s@." overhead_gate;
  [
    ("off_seconds", Report.Json.Float off_dt);
    ("on_seconds", Report.Json.Float on_dt);
    ("overhead_pct", Report.Json.Float overhead_pct);
    ("overhead_budget_pct", Report.Json.Float budget_pct);
    ("overhead_gate", Report.Json.String overhead_gate);
  ]

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
  in
  nn = 0 || go 0

(* GET [path] on [port] and require 200 plus every needle in the body. *)
let probe ~section ~port path needles =
  match Serve.Http.get ~port path with
  | Ok (200, body) ->
      List.iter
        (fun (needle, what) ->
          if not (contains ~needle body) then
            failwith (Printf.sprintf "%s: %s %s" section path what))
        needles
  | Ok (st, _) -> failwith (Printf.sprintf "%s: %s HTTP %d" section path st)
  | Error msg -> failwith (Printf.sprintf "%s: %s: %s" section path msg)

(* [name]'s observations since [before], a snapshot taken ahead of the
   replay (earlier sections feed the same series): count, sum and
   per-bucket counts. *)
let hist_delta ~section name before =
  let after =
    match Obs.find_histogram name with
    | Some h -> h
    | None -> failwith (Printf.sprintf "%s: histogram missing: %s" section name)
  in
  match before with
  | None -> (after.Obs.h_count, after.Obs.h_sum, after.Obs.h_buckets)
  | Some b ->
      ( after.Obs.h_count - b.Obs.h_count,
        after.Obs.h_sum - b.Obs.h_sum,
        List.map2
          (fun (bound, ca) (_, cb) -> (bound, ca - cb))
          after.Obs.h_buckets b.Obs.h_buckets )

(* Upper bound (us) of the first bucket at which the cumulative count
   reaches p% of [total]; the +inf overflow bucket reports the largest
   finite bound (so the value is a floor there, never an invention). *)
let bucket_percentile_us buckets total p =
  if total = 0 then 0.0
  else
    let target =
      max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int total)))
    in
    let rec go acc last = function
      | [] -> last
      | (bound, count) :: rest ->
          let here =
            match bound with Some b -> float_of_int b | None -> last
          in
          let acc = acc + count in
          if acc >= target then here else go acc here rest
    in
    go 0 0.0 buckets

let percentile_ms sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank)) *. 1000.0

let latency_bounds_ms = [ 1.0; 2.0; 5.0; 10.0; 20.0; 50.0; 100.0; 200.0; 500.0 ]

let p99_budget_ms = 500.0

(* The keep-alive saving, measured against the quiet sequential server so
   pool scheduling noise stays out of it: /health with a fresh connection
   per request vs the same count over one kept-alive connection.
   Per-request medians, not means — on a loaded box a single
   descheduling outlier would otherwise swamp the ~tens of microseconds
   of connect/accept/teardown that keep-alive removes. *)
let keepalive_saving port =
  let ka_reqs = 80 in
  let median_us check =
    let samples =
      Array.init ka_reqs (fun _ ->
          let t0 = Unix.gettimeofday () in
          (match check () with
          | Ok (200, _) -> ()
          | Ok (st, _) -> failwith (Printf.sprintf "serve_mt health HTTP %d" st)
          | Error msg -> failwith ("serve_mt health: " ^ msg));
          Unix.gettimeofday () -. t0)
    in
    Array.sort Float.compare samples;
    samples.(ka_reqs / 2) *. 1e6
  in
  let fresh_us = median_us (fun () -> Serve.Http.get ~port "/health") in
  let conn = Serve.Http.Client.connect ~port in
  let reused_us = median_us (fun () -> Serve.Http.Client.get conn "/health") in
  Serve.Http.Client.close conn;
  (fresh_us, reused_us)

let run_mt ~events ~gate =
  let cores, workers, per_client = pool_shape ~events in
  let pooled_events = per_client * workers in
  let lines0 =
    Option.value ~default:0 (Obs.find_counter "serve.ingest.lines")
  in
  let (fresh_us, reused_us), _, baseline_dt =
    soak ~check:keepalive_saving ~workers:1 ~per_client:events
  in
  let (), latencies, pooled_dt = soak ~check:ignore ~workers ~per_client in
  (* both replays fully ingested, nothing shed *)
  let ingested =
    Option.value ~default:0 (Obs.find_counter "serve.ingest.lines") - lines0
  in
  if ingested <> events + pooled_events then
    failwith
      (Printf.sprintf
         "serve_mt: fed %d event(s) but serve.ingest.lines moved by %d"
         (events + pooled_events) ingested);
  let sorted = Array.of_list latencies in
  Array.sort Float.compare sorted;
  let p50 = percentile_ms sorted 50.0 and p99 = percentile_ms sorted 99.0 in
  let histogram =
    List.map
      (fun le ->
        let n =
          Array.fold_left
            (fun acc l -> if l *. 1000.0 <= le then acc + 1 else acc)
            0 sorted
        in
        (le, n))
      latency_bounds_ms
  in
  let baseline_tput = float_of_int events /. baseline_dt in
  let pooled_tput = float_of_int pooled_events /. pooled_dt in
  let speedup = pooled_tput /. baseline_tput in
  Format.printf
    "baseline: %d event(s) in %.3f s (%.0f ev/s, 1 thread)@.pooled:   %d \
     event(s) in %.3f s (%.0f ev/s, %d worker(s) x %d shard(s)) — %.2fx@."
    events baseline_dt baseline_tput pooled_events pooled_dt pooled_tput
    workers workers speedup;
  Format.printf "request latency (%d POSTs): p50 %.2f ms, p99 %.2f ms@."
    (Array.length sorted) p50 p99;
  List.iter
    (fun (le, n) -> Format.printf "  le %6.1f ms: %d@." le n)
    histogram;
  Format.printf
    "keep-alive: %.1f us/req fresh connections, %.1f us/req reused (%.1f us \
     saved)@."
    fresh_us reused_us (fresh_us -. reused_us);
  if p99 > p99_budget_ms then
    failwith
      (Printf.sprintf "serve_mt: p99 request latency %.1f ms over budget %.1f"
         p99 p99_budget_ms);
  let throughput_gate =
    wall_gate ~gate ~cores (fun () ->
        if speedup < 3.0 then
          failwith
            (Printf.sprintf
               "serve_mt: pooled throughput %.2fx baseline, gate requires 3x \
                on %d cores"
               speedup cores)
        else Printf.sprintf "passed (%.2fx >= 3x)" speedup)
  in
  Format.printf "throughput gate: %s@." throughput_gate;
  shape_json ~events ~cores ~workers
  @ [
      ("baseline_seconds", Report.Json.Float baseline_dt);
      ("baseline_events_per_s", Report.Json.Float baseline_tput);
      ("pooled_events", Report.Json.Int pooled_events);
      ("pooled_seconds", Report.Json.Float pooled_dt);
      ("pooled_events_per_s", Report.Json.Float pooled_tput);
      ("speedup", Report.Json.Float speedup);
      ("latency_p50_ms", Report.Json.Float p50);
      ("latency_p99_ms", Report.Json.Float p99);
      ("latency_p99_budget_ms", Report.Json.Float p99_budget_ms);
      ( "latency_histogram_ms",
        Report.Json.Obj
          (List.map
             (fun (le, n) -> (Printf.sprintf "le_%g" le, Report.Json.Int n))
             histogram) );
      ("fresh_conn_us_per_req", Report.Json.Float fresh_us);
      ("keepalive_us_per_req", Report.Json.Float reused_us);
      ("keepalive_saving_us", Report.Json.Float (fresh_us -. reused_us));
      ("throughput_gate", Report.Json.String throughput_gate);
    ]

(* serve_trace: capture off, then on at threshold 0 — every request
   retained, the worst case — with the per-stage latency decomposition of
   the capture-on replay read back from the [*.duration_us] histograms
   the request path feeds. *)
let trace_stages = [ "serve.shard.service"; "serve.request.write" ]

let run_trace ~events ~gate =
  let cores, workers, per_client = pool_shape ~events in
  let pooled_events = per_client * workers in
  Obs.Request.disable ();
  let (), _, off_dt = soak ~check:ignore ~workers ~per_client in
  Obs.Request.configure ~threshold_us:0 ~capacity:64 ();
  let before =
    List.map (fun name -> Obs.find_histogram (name ^ ".duration_us")) trace_stages
  in
  (* the captured span trees must reach /debug/slow complete *)
  let check port =
    probe ~section:"serve_trace" ~port "/debug/slow"
      (List.map
         (fun span -> (span, Printf.sprintf "lacks %s spans" span))
         ("serve.request" :: trace_stages))
  in
  let (), _, on_dt = soak ~check ~workers ~per_client in
  let retained = List.length (Obs.Request.retained ()) in
  Obs.Request.disable ();
  Obs.Request.clear_retained ();
  if retained = 0 then failwith "serve_trace: capture-on soak retained nothing";
  let stage_stats =
    List.map2
      (fun name before ->
        let n, _, delta =
          hist_delta ~section:"serve_trace" (name ^ ".duration_us") before
        in
        ( name,
          n,
          bucket_percentile_us delta n 50.0,
          bucket_percentile_us delta n 99.0 ))
      trace_stages before
  in
  let overhead =
    overhead_fields ~section:"serve_trace" ~label:"capture"
      ~what:"capture overhead" ~budget_pct:10.0 ~gate ~cores
      ~events:pooled_events off_dt on_dt
  in
  Format.printf "%d trace(s) retained@." retained;
  Format.printf "per-stage latency, capture-on replay (bucket upper bounds):@.";
  List.iter
    (fun (name, n, p50, p99) ->
      Format.printf "  %-26s %6d obs   p50 <= %7.0f us   p99 <= %7.0f us@."
        name n p50 p99)
    stage_stats;
  shape_json ~events:pooled_events ~cores ~workers
  @ overhead
  @ [
      ("retained_traces", Report.Json.Int retained);
      ( "stages",
        Report.Json.Obj
          (List.map
             (fun (name, n, p50, p99) ->
               ( name,
                 Report.Json.Obj
                   [
                     ("observations", Report.Json.Int n);
                     ("p50_le_us", Report.Json.Float p50);
                     ("p99_le_us", Report.Json.Float p99);
                   ] ))
             stage_stats) );
    ]

(* serve_gc: runtime profiling off, then [Obs.Rt_events] on — poller
   domain live, per-domain GC pause decoding, per-request gc_overlap_us
   attribution — with pause percentiles from the
   [runtime.gc.pause.duration_us] delta and attribution totals from the
   [serve.request.gc_overlap_us] delta. /debug/gc, /metrics and
   /debug/slow must all carry the telemetry while the profiled server is
   up. *)
let run_gc ~events ~gate =
  let cores, workers, per_client = pool_shape ~events in
  let pooled_events = per_client * workers in
  (* stop a globally-enabled poller first so the baseline really is
     unprofiled *)
  if Obs.Rt_events.running () then Obs.Rt_events.stop ();
  Obs.Request.disable ();
  let (), _, off_dt = soak ~check:ignore ~workers ~per_client in
  (* every request retained so /debug/slow shows the attribution *)
  let before_pause = Obs.find_histogram "runtime.gc.pause.duration_us" in
  let before_overlap = Obs.find_histogram "serve.request.gc_overlap_us" in
  Obs.Request.configure ~threshold_us:0 ~capacity:64 ();
  Obs.Rt_events.start ();
  let check port =
    let probe = probe ~section:"serve_gc" ~port in
    probe "/debug/gc"
      [
        ("\"running\":true", "reports profiling off");
        ("\"recent\"", "carries no domain summaries");
      ];
    probe "/metrics"
      [ ("runtime_gc_pause_duration_us", "lacks runtime_gc_pause_duration_us") ];
    probe "/debug/slow?limit=8"
      [ ("\"gc_us\"", "lacks per-stage gc attribution") ]
  in
  let (), _, on_dt = soak ~check ~workers ~per_client in
  Obs.Rt_events.stop ();
  Obs.Request.disable ();
  Obs.Request.clear_retained ();
  Obs.Rt_events.reset_for_test ();
  let pauses_n, pause_sum_us, pause_delta =
    hist_delta ~section:"serve_gc" "runtime.gc.pause.duration_us" before_pause
  in
  let overlap_n, overlap_sum_us, _ =
    hist_delta ~section:"serve_gc" "serve.request.gc_overlap_us" before_overlap
  in
  if pauses_n = 0 then failwith "serve_gc: profiled soak recorded no GC pauses";
  let pause_p50 = bucket_percentile_us pause_delta pauses_n 50.0 in
  let pause_p99 = bucket_percentile_us pause_delta pauses_n 99.0 in
  let overhead =
    overhead_fields ~section:"serve_gc" ~label:"profiling"
      ~what:"poller overhead" ~budget_pct:5.0 ~gate ~cores
      ~events:pooled_events off_dt on_dt
  in
  Format.printf
    "GC pauses: %d recorded, %d us total, p50 <= %.0f us, p99 <= %.0f us@."
    pauses_n pause_sum_us pause_p50 pause_p99;
  Format.printf
    "attribution: %d request(s) observed, %d us of request time under GC@."
    overlap_n overlap_sum_us;
  shape_json ~events:pooled_events ~cores ~workers
  @ overhead
  @ [
      ("gc_pauses", Report.Json.Int pauses_n);
      ("gc_pause_total_us", Report.Json.Int pause_sum_us);
      ("gc_pause_p50_le_us", Report.Json.Float pause_p50);
      ("gc_pause_p99_le_us", Report.Json.Float pause_p99);
      ("requests_observed", Report.Json.Int overlap_n);
      ("gc_overlap_total_us", Report.Json.Int overlap_sum_us);
    ]
