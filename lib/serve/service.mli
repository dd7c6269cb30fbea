(** The telemetry service: routes, shard-pool feeding, counters and log
    events behind [whynot serve].

    Routes (see [docs/SERVING.md]):
    - [GET /metrics] — Prometheus text exposition of the full {!Obs}
      snapshot, with {!Obs.Runtime.refresh} run first so runtime gauges
      are point-in-time;
    - [GET /health] — liveness (always 200 while the process runs);
    - [GET /ready] — readiness: 503 ["stopping"] once {!log_stop} has
      been called, and 503 with a JSON body naming the saturated shards
      ([{"ready":false,"reason":"backpressure",...}]) while any shard is
      at its admission capacity — an admission would shed, so balancers
      can back off before paying a 429; otherwise 200;
    - [GET /debug/slow] — the tail-capture ring of {!Obs.Request}:
      retained slow / shed / errored requests, newest first, as a JSON
      span-tree summary ({!Report.Trace_json.slow_json}) with per-stage
      and per-span GC overlap; [?limit=N] caps the payload to the [N]
      most recent captures (a malformed or negative [limit] is a 400);
      [?format=jsonl|chrome|folded] re-exports the raw captured trace
      events through {!Report.Trace_json.render} instead;
    - [POST /debug/slow/clear] — empty the retained ring without
      restarting the server; answers [{"cleared":true}];
    - [GET /debug/gc] — per-domain GC pause summaries from
      {!Obs.Rt_events.summaries} (pause/split counts, max pause,
      ring-drop count, recent pauses in wall-clock ns), preceded by a
      {!Obs.Rt_events.poll_now} drain so the payload is point-in-time
      consistent with a [/metrics] scrape; [{"running":false,...}] with
      no domains until [--rt-events] profiling has run;
    - [POST /ingest] — line-delimited CSV events
      ([event,timestamp[,tag[,key]]]); responds with JSONL: one
      [{"type":"match",...}] object per completed match and one
      [{"type":"error",...}] per rejected line, reassembled in input
      order. Inside an HTTP request scope every verdict line carries the
      request id ([request_id]). When a shard is at its admission
      capacity the whole batch is shed — 429 with [Retry-After] and a
      JSON error body carrying the reason and request id, nothing
      applied, safe to retry wholesale. The plain 503 answer is reserved
      for "ingest is fed from stdin".

    Detection runs on a {!Shard} pool: one detector per partition key,
    keys hashed over [shards] shards, each batch fed on the calling
    domain under one involved shard's mutex at a time. {!handle} and
    {!ingest_line} are safe from any number of domains at once
    ({!Http.serve} with any number of workers).

    Counters: [serve.requests], [serve.errors], [serve.scrapes],
    [serve.ingest.lines], [serve.ingest.errors], [serve.matches],
    [serve.shed] and the per-shard [serve.shard.<k>.*] series; scrape
    latency lands in the [serve.scrape] span and its
    [serve.scrape.duration_us] histogram. Log events emitted here are
    listed in {!Obs.Log.event_names}; both catalogs are documented in
    [docs/OBSERVABILITY.md]. *)

type t

val default_max_partials : int
(** 4096, mirroring {!Cep.Detector.create}'s default — the service pins
    it explicitly so pressure warnings know the real bound. Applied per
    partition key. *)

val default_shard_queue : int
(** 64 admitted, unfinished batches per shard before ingest sheds. *)

val create :
  ?horizon:int ->
  ?max_partials:int ->
  ?shards:int ->
  ?shard_queue:int ->
  ?http_ingest:bool ->
  ?help:(string -> string option) ->
  Pattern.Ast.t list ->
  t
(** Detection runs the compiled {!Cep.Detector} engine. [shards]
    (default 1) and [shard_queue] (default {!default_shard_queue})
    configure the {!Shard} pool. [http_ingest] (default true)
    controls whether [POST /ingest] feeds the detectors; pass [false]
    when events arrive on stdin (ingest then answers 503). [help]
    supplies HELP text for [/metrics] keyed by dotted metric name (see
    {!Report.Prom_text.help_of_markdown}).
    @raise Invalid_argument like {!Cep.Detector.create} and
    {!Shard.create}. *)

val pool : t -> Shard.t

val handle : t -> Http.request -> Http.response
(** Route one request; bumps counters and emits [serve.request] /
    [serve.error] log events. Never raises on bad input — unknown paths
    are 404, unknown methods 405. *)

val ingest_line : t -> lineno:int -> string -> (Cep.Detector.match_ list, string) result
(** Parse and feed one stream line (blank lines and headers are
    [Ok \[\]]); the error is the bare reason, without the line number.
    Used directly by the stdin feed; [POST /ingest] goes through the same
    pool with a shared running line counter. Emits [detector.match] /
    [detector.evict] / [detector.pressure] / [ingest.error] log events as
    appropriate. *)

val add_match :
  Buffer.t -> ?request_id:string -> line:int -> Cep.Detector.match_ -> unit
(** Append the JSONL match verdict, newline included:
    [{"type":"match","line":N,"tags":{...},"timestamps":{...}}] — [line]
    is the input line that completed the match, so clients can correlate
    matches to input lines across batches (errors carry the same field).
    [request_id] (stamped automatically on the HTTP ingest path from
    {!Obs.Request.current_id}) inserts a [request_id] field after
    [line], joining the verdict to the server-side request trace. The one
    writer of the verdict: [POST /ingest] and the stdin feed both print
    through it. *)

val metrics_body : t -> string
(** The [/metrics] payload (refresh runtime gauges, snapshot, render). *)

val prom_content_type : string
val jsonl_content_type : string

val log_start : port:int -> unit
(** Emit the [serve.start] log event. *)

val log_stop : t -> unit
(** Mark the service not-ready (readiness flips to 503) and emit
    [serve.stop]. *)
