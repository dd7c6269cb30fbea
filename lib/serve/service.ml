let requests_c = Obs.counter "serve.requests"
let errors_c = Obs.counter "serve.errors"
let scrapes_c = Obs.counter "serve.scrapes"
let ingest_errors_c = Obs.counter "serve.ingest.errors"

(* Scrape latencies in microseconds: loopback render-and-serialize lands in
   the sub-millisecond decades, with headroom for GC-disturbed outliers. *)
let scrape_s =
  Obs.span ~buckets:[| 50; 100; 250; 500; 1000; 2500; 5000; 10000; 50000 |]
    "serve.scrape"

let parse_s = Obs.span ~buckets:Obs.latency_buckets "serve.ingest.parse"
let submit_s = Obs.span ~buckets:Obs.latency_buckets "serve.ingest.submit"

let reassemble_s =
  Obs.span ~buckets:Obs.latency_buckets "serve.ingest.reassemble"

let prom_content_type = "text/plain; version=0.0.4; charset=utf-8"
let jsonl_content_type = "application/x-ndjson"

type t = {
  pool : Shard.t;
  http_ingest : bool;
  help : string -> string option;
  ready : bool Atomic.t;
  next_line : int Atomic.t;
}

let default_max_partials = 4096
let default_shard_queue = 64

let create ?horizon ?(max_partials = default_max_partials)
    ?(shards = 1) ?(shard_queue = default_shard_queue)
    ?(http_ingest = true) ?(help = fun _ -> None) query =
  {
    pool =
      Shard.create ?horizon ~max_partials ~shards ~queue_capacity:shard_queue
        query;
    http_ingest;
    help;
    ready = Atomic.make true;
    next_line = Atomic.make 1;
  }

let pool t = t.pool
let log_start ~port = Obs.Log.emit Info "serve.start" [ ("port", Num port) ]

let log_stop t =
  Atomic.set t.ready false;
  Obs.Log.emit Info "serve.stop" []

let overload_reason = "overloaded: shard queue full"

let parse_error ~lineno reason =
  Obs.incr ingest_errors_c;
  Obs.Log.emit Warn "ingest.error"
    [ ("line", Num lineno); ("reason", Str reason) ]

let ingest_line t ~lineno line =
  let b =
    Ingest.scan_line (Shard.template t.pool) line ~lineno ~on_error:parse_error
  in
  if Ingest.kind b 0 = Ingest.bad then Error (Ingest.reason b 0)
  else
    match Shard.submit t.pool b with
    | Shard.Shed -> Error overload_reason
    | Shard.Processed results -> results.(0)

(* The verdict lines, written straight into the response. The request
   id rides along on every verdict object when the call runs inside an
   [Obs.Request] scope (the HTTP path), so client-side logs can be joined
   against server traces; the stdin feed has no request and writes none. *)
let add_head ?request_id ~kind ~line out =
  Buffer.add_string out "{\"type\":\"";
  Buffer.add_string out kind;
  Buffer.add_string out "\",\"line\":";
  Buffer.add_string out (string_of_int line);
  match request_id with
  | None -> ()
  | Some id ->
      Buffer.add_string out ",\"request_id\":";
      Report.Json.add_string out id

let add_error out ?request_id ~line reason =
  add_head ?request_id ~kind:"error" ~line out;
  Buffer.add_string out ",\"reason\":";
  Report.Json.add_string out reason;
  Buffer.add_string out "}\n"

let add_match out ?request_id ~line (m : Cep.Detector.match_) =
  let obj name add_value = function
    | [] -> Buffer.add_string out ("," ^ name ^ ":{}")
    | fields ->
        Buffer.add_char out ',';
        Buffer.add_string out name;
        Buffer.add_string out ":{";
        List.iteri
          (fun i (e, v) ->
            if i > 0 then Buffer.add_char out ',';
            Report.Json.add_string out e;
            Buffer.add_char out ':';
            add_value v)
          fields;
        Buffer.add_char out '}'
  in
  add_head ?request_id ~kind:"match" ~line out;
  obj "\"tags\"" (Report.Json.add_string out) m.tags;
  obj "\"timestamps\""
    (fun ts -> Buffer.add_string out (string_of_int ts))
    (Events.Tuple.bindings m.tuple);
  Buffer.add_string out "}\n"

(* One POST /ingest body: scan every line into the batch's rows and
   reserve a block of line numbers (numbering keeps counting across
   requests so default tags stay unique), submit the batch to the shard
   pool in one call, and write the JSONL verdicts in input order — the
   same client contract as the sequential detector. A shed batch answers
   429 without having applied anything, so the client may retry it
   wholesale. *)
let ingest_body t body =
  let request_id = Obs.Request.current_id () in
  let b =
    Obs.time parse_s (fun () ->
        Ingest.scan_body (Shard.template t.pool) body
          ~reserve:(Atomic.fetch_and_add t.next_line)
          ~on_error:parse_error)
  in
  let base = b.base and lines = b.lines in
  match
    (* the shard-service spans, one per shard the batch touches, open
       inside [submit] as children of this one *)
    Obs.time submit_s (fun () -> Shard.submit t.pool b)
  with
  | Shard.Shed ->
      (* nothing was applied; give the line numbers back would race other
         batches, so the block stays consumed — tags remain unique *)
      Http.response ~status:429
        ~headers:[ ("Retry-After", "1") ]
        ~content_type:"application/json"
        (Report.Json.to_string
           (Report.Json.Obj
              (("type", Report.Json.String "error")
              :: ("reason", Report.Json.String overload_reason)
              ::
              (match request_id with
              | None -> []
              | Some id -> [ ("request_id", Report.Json.String id) ])))
        ^ "\n")
  | Shard.Processed results ->
      Obs.time reassemble_s (fun () ->
          let out = Buffer.create 256 in
          for i = 0 to lines - 1 do
            let line = base + i in
            let kind = Ingest.kind b i in
            if kind = Ingest.bad then
              add_error out ?request_id ~line (Ingest.reason b i)
            else if kind > Ingest.skip then
              match results.(i) with
              | Ok matches -> List.iter (add_match out ?request_id ~line) matches
              | Error reason -> add_error out ?request_id ~line reason
          done;
          Http.response ~content_type:jsonl_content_type (Buffer.contents out))

let metrics_body t =
  Obs.time scrape_s (fun () ->
      Obs.Runtime.refresh ();
      Report.Prom_text.render ~help:t.help (Obs.snapshot ()))

(* Request targets may carry a query string (Prometheus sends one when a
   scrape config uses [params]) or a fragment; route on the path alone. *)
let route_path target =
  let cut c s =
    match String.index_opt s c with Some i -> String.sub s 0 i | None -> s
  in
  cut '?' (cut '#' target)

(* First value of [name] in the target's query string, if any. Enough of
   a parser for the single [?format=] knob; no %-decoding. *)
let query_param target name =
  match String.index_opt target '?' with
  | None -> None
  | Some i ->
      let q = String.sub target (i + 1) (String.length target - i - 1) in
      let q = match String.index_opt q '#' with
        | Some j -> String.sub q 0 j
        | None -> q
      in
      List.find_map
        (fun pair ->
          match String.index_opt pair '=' with
          | Some k when String.sub pair 0 k = name ->
              Some (String.sub pair (k + 1) (String.length pair - k - 1))
          | _ -> None)
        (String.split_on_char '&' q)

(* GET /debug/slow: the tail-capture ring, newest first, capped by
   [?limit=N]. The default payload is the span-tree JSON summary;
   [?format=jsonl|chrome|folded] re-exports the raw captured events
   through the existing trace renderers instead. *)
let slow_body target =
  let render infos =
    match query_param target "format" with
    | None ->
        Http.response ~content_type:"application/json"
          (Report.Trace_json.slow_json infos)
    | Some name -> (
        match Report.Trace_json.format_of_string name with
        | None ->
            Http.response ~status:400 ("unknown format: " ^ name ^ "\n")
        | Some fmt ->
            (* oldest first, so spans replay in the order they happened *)
            let events =
              List.concat_map
                (fun (i : Obs.Request.info) -> i.r_events)
                (List.rev infos)
            in
            let content_type =
              match fmt with
              | Report.Trace_json.Jsonl -> jsonl_content_type
              | Report.Trace_json.Chrome -> "application/json"
              | Report.Trace_json.Folded -> "text/plain; charset=utf-8"
            in
            Http.response ~content_type (Report.Trace_json.render fmt events))
  in
  let infos = Obs.Request.retained () in
  match query_param target "limit" with
  | None -> render infos
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 0 ->
          (* newest first, so the cap keeps the most recent captures *)
          let rec take n = function
            | x :: tl when n > 0 -> x :: take (n - 1) tl
            | _ -> []
          in
          render (take n infos)
      | Some _ | None -> Http.response ~status:400 ("bad limit: " ^ s ^ "\n"))

(* GET /debug/gc: per-domain pause summaries from the runtime-events
   decoder — counts, split by class, max pause, ring-drop count and the
   ring of recent pauses (wall-clock ns, so entries line up with
   /debug/slow span timestamps). A drain runs first so the payload is
   point-in-time consistent with a /metrics scrape. *)
let gc_body () =
  ignore (Obs.Rt_events.poll_now ());
  let pause (p : Obs.Rt_events.pause) =
    Report.Json.Obj
      [
        ( "class",
          Report.Json.String (Obs.Rt_events.pause_class_name p.p_class) );
        ("start_ns", Report.Json.Int p.p_start_ns);
        ("end_ns", Report.Json.Int p.p_end_ns);
        ("duration_us", Report.Json.Int ((p.p_end_ns - p.p_start_ns) / 1000));
      ]
  in
  let dom (d : Obs.Rt_events.dom_summary) =
    Report.Json.Obj
      [
        ("dom", Report.Json.Int d.d_dom);
        ("pauses", Report.Json.Int d.d_pauses);
        ("minor", Report.Json.Int d.d_minor);
        ("major", Report.Json.Int d.d_major);
        ("compact", Report.Json.Int d.d_compact);
        ("max_pause_us", Report.Json.Int d.d_max_pause_us);
        ("dropped", Report.Json.Int d.d_dropped);
        ("recent", Report.Json.List (List.map pause d.d_recent));
      ]
  in
  Report.Json.to_string
    (Report.Json.Obj
       [
         ("running", Report.Json.Bool (Obs.Rt_events.running ()));
         ( "domains",
           Report.Json.List (List.map dom (Obs.Rt_events.summaries ())) );
       ])
  ^ "\n"

(* 503 payload naming the saturated shards, so a load balancer (or an
   operator) can see which partitions are behind. *)
let backpressure_body t saturated =
  Report.Json.to_string
    (Report.Json.Obj
       [
         ("ready", Report.Json.Bool false);
         ("reason", Report.Json.String "backpressure");
         ( "saturated_shards",
           Report.Json.List
             (List.map
                (fun (k, queued) ->
                  Report.Json.Obj
                    [
                      ("shard", Report.Json.Int k);
                      ("queued", Report.Json.Int queued);
                      ("capacity", Report.Json.Int (Shard.queue_capacity t.pool));
                    ])
                saturated) );
       ])
  ^ "\n"

let handle t (req : Http.request) =
  Obs.incr requests_c;
  let method_not_allowed =
    Http.response ~status:405 "method not allowed\n"
  in
  let resp =
    (* Dispatch on path first so a known route with the wrong method is a
       405, and only unknown paths answer 404. *)
    match route_path req.path with
    | "/metrics" ->
        if String.equal req.meth "GET" then begin
          Obs.incr scrapes_c;
          Http.response ~content_type:prom_content_type (metrics_body t)
        end
        else method_not_allowed
    | "/health" ->
        if String.equal req.meth "GET" then Http.response "ok\n"
        else method_not_allowed
    | "/ready" ->
        if String.equal req.meth "GET" then
          if not (Atomic.get t.ready) then
            Http.response ~status:503 "stopping\n"
          else begin
            (* Reflect back-pressure: while any shard is at its
               admission capacity a batch would shed, so tell the
               balancer to back off before it costs a 429. *)
            match Shard.saturation t.pool with
            | [] -> Http.response "ready\n"
            | saturated ->
                Http.response ~status:503 ~content_type:"application/json"
                  (backpressure_body t saturated)
          end
        else method_not_allowed
    | "/debug/slow" ->
        if String.equal req.meth "GET" then slow_body req.path
        else method_not_allowed
    | "/debug/slow/clear" ->
        if String.equal req.meth "POST" then begin
          Obs.Request.clear_retained ();
          Http.response ~content_type:"application/json"
            "{\"cleared\":true}\n"
        end
        else method_not_allowed
    | "/debug/gc" ->
        if String.equal req.meth "GET" then
          Http.response ~content_type:"application/json" (gc_body ())
        else method_not_allowed
    | "/ingest" ->
        if String.equal req.meth "POST" then
          if t.http_ingest then ingest_body t req.body
          else Http.response ~status:503 "ingest is fed from stdin\n"
        else method_not_allowed
    | _ -> Http.response ~status:404 "not found\n"
  in
  if resp.status >= 400 then begin
    Obs.incr errors_c;
    Obs.Log.emit Warn "serve.error"
      [
        ("method", Str req.meth);
        ("path", Str req.path);
        ("status", Num resp.status);
      ]
  end;
  if Obs.Log.enabled Debug then
    Obs.Log.emit Debug "serve.request"
      [
        ("method", Str req.meth);
        ("path", Str req.path);
        ("status", Num resp.status);
      ];
  resp
