(* The ingest workloads' traffic generator, run against a `whynot serve`
   process of its own: one open-loop run over at most two keep-alive
   connections, first at the reference rate for [seconds] seconds (latency,
   CPU, memory and scrape metrics), then, when the ladder is on, up a
   ladder of higher fixed offered rates that stops one step past the
   knee. /metrics scrapes run at a fixed interval beside the POSTs
   throughout. The server's counters are read before and after the run
   for the output checks; given the server's access log (the traced run),
   each reference-window request is joined with its [serve.access] line
   by X-Request-Id into the per-layer table. *)

module J = Whynot.Report.Json

(* The reference rate, POST/s: well below the knee of the sequential
   server (latency ran away between 400 and 600 POST/s of 100 lines). At
   the mean batch of about 40 lines it offers about 6000 events/s. *)
let ref_rate = 150.

(* The offered-rate ladder above it, POST/s, one step a second, and the
   p99 limit a step must meet. *)
let ladder_rates = [ 400.; 600.; 800.; 1000. ]
let step_s = 1.
let limit_ms = 500.

(* /metrics every 15 s: the scrape interval of Prometheus's example
   configuration (documentation/examples/prometheus.yml; its built-in
   default is one minute). *)
let scrape_interval_s = 15.

let post_kind = 0
let scrape_kind = 1

let scrape_request = "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: keep-alive\r\n\r\n"

let post_request body =
  Printf.sprintf
    "POST /ingest HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: text/csv\r\nContent-Length: %d\r\nConnection: keep-alive\r\n\r\n%s"
    (String.length body) body

type config = {
  port : int;
  pid : int;  (** the server, for its CPU time *)
  seed : int;
  seconds : float;  (** length of the reference window *)
  ladder : bool;
  records : string;  (** where to write the per-request records; "" for none *)
  access_log : string;  (** the server's log, for the traced table; "" for none *)
}

(* Step 0 is the reference rate, steps 1.. the ladder. *)
let rate_schedule cfg prng =
  let rates = if cfg.ladder then ladder_rates else [] in
  let steps =
    (0, ref_rate, 0., cfg.seconds)
    :: List.mapi (fun k r -> (k + 1, r, cfg.seconds +. (float_of_int k *. step_s), step_s)) rates
  in
  let posts =
    List.concat_map
      (fun (step, rate, start, dur) ->
        List.init (int_of_float (rate *. dur)) (fun i ->
            {
              Loadgen.kind = post_kind;
              step;
              at_ns = int_of_float ((start +. (float_of_int i /. rate)) *. 1e9);
              size = Traffic.batch_size prng;
            }))
      steps
  in
  let last = List.length rates in
  let total_s = cfg.seconds +. (float_of_int last *. step_s) in
  let step_at t = if t < cfg.seconds then 0 else min last (1 + int_of_float ((t -. cfg.seconds) /. step_s)) in
  let scrapes =
    List.init
      (int_of_float (Float.ceil (total_s /. scrape_interval_s)))
      (fun i ->
        let t = float_of_int i *. scrape_interval_s in
        { Loadgen.kind = scrape_kind; step = step_at t; at_ns = int_of_float (t *. 1e9) + 1; size = 0 })
  in
  let items = Array.of_list (posts @ scrapes) in
  Array.stable_sort (fun (x : Loadgen.item) y -> Int.compare x.at_ns y.at_ns) items;
  (items, steps)

type run = { items : Loadgen.item array; r : Loadgen.result; bodies : string array }

let drive cfg streams ~marks ~mark ~stop_age_ns items =
  let bodies = Array.make (Array.length items) "" in
  let request ~slot i =
    if items.(i).Loadgen.kind = scrape_kind then scrape_request
    else begin
      let body = Traffic.batch streams.(slot) items.(i).size in
      bodies.(i) <- body;
      post_request body
    end
  in
  let r = Loadgen.run ~max_conns:2 ~marks ~mark ~stop_age_ns ~port:cfg.port ~request items in
  { items; r; bodies }

let indices run = List.init (Array.length run.items) Fun.id
let sent run i = run.r.sent_ns.(i) >= 0
let ok run i = run.r.status.(i) = 200
let is_post run i = run.items.(i).kind = post_kind

let latencies_us run sel =
  Array.of_list
    (List.filter_map
       (fun i ->
         if sel i then
           let l = Loadgen.latency_ns run.r run.items i in
           Some (if l = max_int then infinity else float_of_int l /. 1e3)
         else None)
       (indices run))

let sum_lines run sel = List.fold_left (fun acc i -> if sel i then acc + run.items.(i).size else acc) 0 (indices run)
let count run sel = List.length (List.filter sel (indices run))

let num x = J.Float (if Float.is_finite x then x else -1.)

(* The server's counters and histogram sums from one GET /metrics on a
   connection of its own, outside the schedule. *)
let counters port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let text =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        let req = "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n" in
        ignore (Unix.write_substring fd req 0 (String.length req));
        let buf = Buffer.create 65536 and chunk = Bytes.create 65536 in
        let rec read () =
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | k ->
              Buffer.add_subbytes buf chunk 0 k;
              read ()
        in
        read ();
        Buffer.contents buf)
  in
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        match String.rindex_opt line ' ' with
        | Some k -> (
            match float_of_string_opt (String.sub line (k + 1) (String.length line - k - 1)) with
            | Some v -> Hashtbl.replace tbl (String.sub line 0 k) v
            | None -> ())
        | None -> ())
    (String.split_on_char '\n' text);
  tbl

(* The server's [serve.access] lines by request id. The server writes a
   line after its response, so the last ones can trail the run: read
   until every id in [want] is there, or a few seconds have passed. *)
let access_lines path ~want =
  let read () =
    let tbl = Hashtbl.create 4096 in
    In_channel.with_open_text path In_channel.input_lines
    |> List.iter (fun line ->
           match J.of_string line with
           | Ok j when J.member "event" j = Some (J.String "serve.access") -> (
               match J.member "id" j with Some (J.String id) -> Hashtbl.replace tbl id j | _ -> ())
           | _ -> ());
    tbl
  in
  let rec go tries =
    let tbl = read () in
    if tries = 0 || List.for_all (Hashtbl.mem tbl) want then tbl
    else begin
      Unix.sleepf 0.2;
      go (tries - 1)
    end
  in
  go 25

let field j name = Option.value ~default:0. (Option.bind (J.member name j) J.to_float)
let mean l = if l = [] then 0. else List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* The per-layer table of the reference window, per request in µs unless
   named otherwise. The first turn of a connection is the only one whose
   read is pure reading (later turns also wait in read for the client's
   next request), so only those reads count. [http.outside_us] is what the
   client saw beyond the server's stages: accept backlog, waiting behind
   the other connection, loopback. The layers add up to the traced
   latency, so the residual is that unattributed share. *)
let layers run ~joined ~scrapes ~delta ~after =
  let us ns = float_of_int ns /. 1e3 in
  let over f = mean (List.map f joined) in
  let late = over (fun (i, _) -> us (run.r.sent_ns.(i) - run.r.t0 - run.items.(i).at_ns)) in
  let queue_wait = over (fun (_, a) -> field a "queue_wait_us") in
  let read = over (fun (i, a) -> if run.r.fresh.(i) then field a "read_us" else 0.) in
  let service = over (fun (_, a) -> field a "service_us") in
  let write = over (fun (_, a) -> field a "write_us") in
  let client = over (fun (i, _) -> us (run.r.done_ns.(i) - run.r.sent_ns.(i))) in
  let outside = client -. queue_wait -. read -. service -. write in
  let traced = late +. client in
  let lines = delta "whynot_serve_ingest_lines" in
  let per_line x = if lines > 0. then x /. lines else 0. in
  let shard_n = delta "whynot_serve_shard_service_duration_us_count" in
  let shard_us = if shard_n > 0. then delta "whynot_serve_shard_service_duration_us_sum" /. shard_n else 0. in
  let shard_events =
    List.filter_map
      (fun k ->
        let name = Printf.sprintf "whynot_serve_shard_%d_events" k in
        if Hashtbl.mem after name then Some (delta name) else None)
      (List.init 8 Fun.id)
  in
  let answered = count run (fun i -> sent run i && run.r.status.(i) > 0) in
  let f x = num x in
  [
    ("http.client_late_us", f late);
    ("http.queue_wait_us", f queue_wait);
    ("http.read_us", f read);
    ("http.write_us", f write);
    ("http.outside_us", f outside);
    ("http.conns_opened", f (float_of_int run.r.conns_opened));
    ("http.keepalive_reuses", f (delta "whynot_serve_keepalive_reuses"));
    ("service.ingest_us", f service);
    ( "service.bytes_out_per_line",
      f
        (List.fold_left (fun acc (_, a) -> acc +. field a "bytes_out") 0. joined
        /. float_of_int (max 1 (List.fold_left (fun acc (i, _) -> acc + run.items.(i).size) 0 joined))) );
    ("service.scrape_us", f (mean (List.map (fun a -> field a "service_us") scrapes)));
    ("scrape.bytes", f (mean (List.map (fun a -> field a "bytes_out") scrapes)));
    ("shard.service_us", f shard_us);
    ("shard.handoff_us", f (service -. shard_us));
    ( "shard.skew",
      f (if mean shard_events > 0. then List.fold_left Float.max 0. shard_events /. mean shard_events else 0.) );
    ("shard.shed", f (delta "whynot_serve_shed"));
    ("detector.matches_per_line", f (per_line (delta "whynot_serve_matches")));
    ("detector.partials_peak", f (Option.value ~default:0. (Hashtbl.find_opt after "whynot_detector_partials_peak")));
    ("gc.overlap_us", f (over (fun (_, a) -> field a "gc_overlap_us")));
    ("gc.pause_us", f (delta "whynot_runtime_gc_pause_duration_us_sum" /. float_of_int (max 1 answered)));
    ("gc.minor_words_per_op", f (per_line (delta "whynot_runtime_gc_minor_words")));
    ("gc.major_collections", f (delta "whynot_runtime_gc_major_collections"));
    ("trace.residual_pct", f (if traced > 0. then 100. *. outside /. traced else 0.));
  ]

let main cfg =
  let streams = Array.init 2 (fun slot -> Traffic.stream ~seed:cfg.seed ~slot) in
  let prng = Whynot.Numeric.Prng.create ((cfg.seed * 31) + 7) in
  let items, steps = rate_schedule cfg prng in
  (* the server's CPU time, whole and per thread, at every second of the
     reference window, and its peak RSS at the window's end: a fixed
     amount of work for every seed, unlike the ladder, which stops
     wherever the knee falls *)
  let windows = max 1 (int_of_float cfg.seconds) in
  let cpu = Array.make (windows + 1) 0 and threads = Array.make (windows + 1) [] and rss = ref 0. in
  let before = counters cfg.port in
  let run =
    drive cfg streams items
      ~marks:(Array.init (windows + 1) (fun k -> k * 1_000_000_000))
      ~mark:(fun k ->
        cpu.(k) <- Procfs.process_cpu_ns cfg.pid;
        threads.(k) <- Procfs.thread_cpu_ticks cfg.pid;
        if k = windows then rss := Procfs.peak_rss_mb cfg.pid)
      ~stop_age_ns:(int_of_float (limit_ms *. 2e6))
  in
  let after = counters cfg.port in
  let delta name =
    Option.value ~default:0. (Hashtbl.find_opt after name) -. Option.value ~default:0. (Hashtbl.find_opt before name)
  in
  let in_step k i = run.items.(i).step = k && i < run.r.released in
  let ref_posts = latencies_us run (fun i -> in_step 0 i && is_post run i) in
  let ref_scrapes = latencies_us run (fun i -> in_step 0 i && not (is_post run i)) in
  (* server CPU per ingested event: the median over the one-second windows
     in which no scrape ran on the server, so the figure is the ingest
     path's alone (scrape cost is scrape_p50_us and, traced,
     service.scrape_us), and a burst of CPU steal in one second does not
     move it *)
  let scrape_free k =
    List.for_all
      (fun i ->
        is_post run i || (not (sent run i))
        ||
        let from = run.r.sent_ns.(i) - run.r.t0 in
        let until = if run.r.done_ns.(i) < 0 then max_int else run.r.done_ns.(i) - run.r.t0 in
        until < k * 1_000_000_000 || from >= (k + 1) * 1_000_000_000)
      (indices run)
  in
  let free = List.filter scrape_free (List.init windows Fun.id) in
  let window_lines k =
    sum_lines run (fun i -> in_step 0 i && is_post run i && ok run i && run.items.(i).at_ns / 1_000_000_000 = k)
  in
  let cpu_us_per_op =
    Stats.median
      (Array.of_list
         (List.map (fun k -> float_of_int (cpu.(k + 1) - cpu.(k)) /. 1e3 /. float_of_int (max 1 (window_lines k))) free))
  in
  (* the same windows per server thread, in thread-id (creation) order;
     clock ticks are 10 ms *)
  let by_thread =
    let free_lines = List.fold_left (fun acc k -> acc + window_lines k) 0 free in
    List.map
      (fun (tid, _) ->
        let ticks k = Option.value ~default:0 (List.assoc_opt tid threads.(k)) in
        let t = List.fold_left (fun acc k -> acc + ticks (k + 1) - ticks k) 0 free in
        num (float_of_int t *. 1e4 /. float_of_int (max 1 free_lines)))
      threads.(windows)
  in
  let boundary k = List.assoc_opt k run.r.boundaries in
  let last = List.length steps - 1 in
  let step_rows =
    List.map
      (fun (k, rate, _, dur) ->
        let l = latencies_us run (fun i -> in_step k i && is_post run i) in
        let offered = count run (fun i -> run.items.(i).step = k && is_post run i) in
        let p99 = Stats.percentile l 99. in
        (* the backlog of queued and in-flight requests at the step's end
           against its start; the last step has no end boundary *)
        let grows =
          match ((if k = 0 then Some 0 else boundary (k - 1)), boundary k) with
          | Some a, Some b -> b > a + 2
          | Some _, None -> k < last
          | None, _ -> true
        in
        let pass = Array.length l = offered && offered > 0 && p99 <= limit_ms *. 1e3 && not grows in
        let events = sum_lines run (fun i -> in_step k i && is_post run i && ok run i) in
        (k, rate, pass, float_of_int events /. dur, Stats.median l, p99))
      steps
  in
  (* sustained throughput: the event rate at the highest offered rate
     whose p99 stays under the limit with a backlog that does not grow,
     every lower rate passing too *)
  let knee =
    let rec go best = function
      | (_, _, true, ev, _, _) :: rest -> go ev rest
      | _ -> best
    in
    go 0. step_rows
  in
  let attempted = count run (sent run) in
  let failed = count run (fun i -> sent run i && not (ok run i)) in
  let late_us =
    Array.of_list
      (List.filter_map
         (fun i ->
           if sent run i then Some (float_of_int (run.r.sent_ns.(i) - run.r.t0 - run.items.(i).at_ns) /. 1e3)
           else None)
         (indices run))
  in
  (* output checks: a per-key replay of every applied batch, per
     connection slot in the order sent, and the server's own counters *)
  let applied slot =
    List.filter_map
      (fun i -> if is_post run i && ok run i && run.r.slot.(i) = slot then Some run.bodies.(i) else None)
      (indices run)
  in
  let expected = Traffic.replay_matches (applied 0 @ applied 1) in
  let seen = List.fold_left (fun acc i -> if is_post run i && ok run i then acc + run.r.matches.(i) else acc) 0 (indices run) in
  let lines_sent = sum_lines run (fun i -> is_post run i && ok run i) in
  let checks =
    [
      ("matches_equal_replay", seen = expected);
      ("matches_equal_server", delta "whynot_serve_matches" = float_of_int seen);
      ("lines_equal_server", delta "whynot_serve_ingest_lines" +. delta "whynot_serve_ingest_errors" = float_of_int lines_sent);
    ]
  in
  let ref_ok kind = List.filter (fun i -> in_step 0 i && run.items.(i).kind = kind && ok run i) (indices run) in
  let traced_checks, traced_fields =
    match cfg.access_log with
    | "" -> ([], [])
    | path ->
        let want = List.map (fun i -> run.r.request_id.(i)) (ref_ok post_kind @ ref_ok scrape_kind) in
        let access = access_lines path ~want in
        let join kind =
          List.filter_map
            (fun i -> Option.map (fun a -> (i, a)) (Hashtbl.find_opt access run.r.request_id.(i)))
            (ref_ok kind)
        in
        let joined = join post_kind and scrapes = List.map snd (join scrape_kind) in
        ( [ ("access_lines_joined", joined <> [] && List.for_all (Hashtbl.mem access) want) ],
          [ ("layers", J.Obj (layers run ~joined ~scrapes ~delta ~after)) ] )
  in
  let checks = checks @ traced_checks in
  (* mean latency of the answered reference POSTs, whole and by quarter of
     the window: the traced run's end-to-end time and its noise *)
  let ref_answered = latencies_us run (fun i -> in_step 0 i && is_post run i && ok run i) in
  let n = Array.length ref_answered in
  let quarters = List.init 4 (fun q -> Stats.mean (Array.sub ref_answered (q * n / 4) (((q + 1) * n / 4) - (q * n / 4)))) in
  (* the client spans, one line per request sent: kind, step, intended,
     actual send and answer times (ns from the schedule's start; -1 if
     unanswered), status, X-Request-Id, first on its connection,
     connection slot, lines, match verdicts, body bytes *)
  if cfg.records <> "" then
    Out_channel.with_open_text cfg.records (fun oc ->
        List.iter
          (fun i ->
            if sent run i then
              Printf.fprintf oc "%d\t%d\t%d\t%d\t%d\t%d\t%s\t%b\t%d\t%d\t%d\t%d\n" run.items.(i).kind
                run.items.(i).step run.items.(i).at_ns
                (run.r.sent_ns.(i) - run.r.t0)
                (if run.r.done_ns.(i) < 0 then -1 else run.r.done_ns.(i) - run.r.t0)
                run.r.status.(i) run.r.request_id.(i) run.r.fresh.(i) run.r.slot.(i)
                run.items.(i).size run.r.matches.(i) run.r.body_bytes.(i))
          (indices run));
  print_endline
    (J.to_string
       (J.Obj
          ([
             ("correct", J.Bool (List.for_all snd checks));
             ("checks", J.Obj (List.map (fun (k, v) -> (k, J.Bool v)) checks));
             ("attempted", J.Int attempted);
             ("failed", J.Int failed);
             ("cpu_us_per_op", num cpu_us_per_op);
             ("cpu_windows", J.Int (List.length free));
             ("peak_rss_mb", num !rss);
             ("throughput_per_s", num knee);
             ("p50_us", num (Stats.percentile ref_posts 50.));
             ("p99_us", num (Stats.percentile ref_posts 99.));
             ("ref_samples", J.Int (Array.length ref_posts));
             ("ref_mean_us", num (Stats.mean ref_answered));
             ("ref_quarter_means_us", J.List (List.map num quarters));
             ("scrape_p50_us", num (Stats.percentile ref_scrapes 50.));
             ("scrape_samples", J.Int (Array.length ref_scrapes));
             ("error_ratio", num (float_of_int failed /. float_of_int (max 1 attempted)));
             ("lines_sent", J.Int lines_sent);
             ("matches_seen", J.Int seen);
             ("matches_expected", J.Int expected);
             ("conns_opened", J.Int run.r.conns_opened);
             ("late_p99_us", num (Stats.percentile late_us 99.));
             ("late_max_us", num (Stats.percentile late_us 100.));
             ("cpu_us_per_event_by_thread", J.List by_thread);
             ("ref_rate_per_s", num ref_rate);
             ("offered_rates_per_s", J.List (List.map num (if cfg.ladder then ladder_rates else [])));
             ("step_s", num step_s);
             ("scrape_interval_s", num scrape_interval_s);
             ("latency_limit_ms", num limit_ms);
             ( "steps",
               J.List
                 (List.map
                    (fun (k, rate, pass, ev, p50, p99) ->
                      J.Obj
                        [
                          ("step", J.Int k); ("rate_per_s", num rate); ("pass", J.Bool pass);
                          ("events_per_s", num ev); ("p50_us", num p50); ("p99_us", num p99);
                        ])
                    step_rows) );
           ]
          @ traced_fields)));
  List.for_all snd checks
