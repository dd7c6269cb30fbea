(** Lightweight observability: global counters, gauges, histograms and
    timing spans for the engine's hot paths.

    Every metric lives in one process-wide registry keyed by a dotted
    name ([simplex.pivots], [detector.matches], ...). Call sites obtain a
    handle once — typically at module initialisation — and then update it
    with no allocation and no lock on the hot path: all cells are
    {!Atomic} ints, so updates are safe and lossless under {!Cep.Bulk}'s
    domains.

    {b Determinism.} Counters, gauges and histograms are pure functions
    of the work performed, so a {!snapshot} restricted to them is
    byte-identical across runs on the same input. Spans measure
    wall-clock time and are not deterministic.

    This module is dependency-free; {!Report.Obs_json} renders a
    snapshot as JSON. Metric names, units and the snapshot schema are
    documented in [docs/OBSERVABILITY.md]. *)

type counter
type gauge
type histogram

(** {1 Registration (get-or-create, idempotent)} *)

val counter : string -> counter
(** Monotonic event count. @raise Invalid_argument if the name is
    already registered as a different metric kind. *)

val gauge : string -> gauge
(** Point-in-time level (last value wins; or use {!gauge_max} for a
    high-water mark). @raise Invalid_argument on a kind clash. *)

val histogram : ?buckets:int array -> string -> histogram
(** Distribution of integer sizes/latencies over fixed, strictly
    increasing bucket upper bounds ([buckets] defaults to
    {!default_buckets}; a final +inf bucket is implicit). On repeated
    registration the first bounds win. @raise Invalid_argument on a kind
    clash or non-increasing bounds. *)

val default_buckets : int array

val latency_buckets : int array
(** Microsecond bucket bounds shared by the [*.duration_us] latency
    histograms of the [serve.*] stage spans,
    [runtime.gc.pause.duration_us] and [serve.request.gc_overlap_us]:
    50us at the fast end, 1s at the tail, so stage, pause and overlap
    percentiles are computed on the same grid. *)

(** {1 Hot-path updates} *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val gauge_set : gauge -> int -> unit

val gauge_add : gauge -> int -> int
(** [gauge_add g d] adds [d] to the gauge atomically and returns the
    level before the addition, for a gauge that is itself a count (the
    shard admission count), so no second cell is mirrored into it. *)

val gauge_max : gauge -> int -> unit
(** [gauge_max g v] raises the gauge to [v] if [v] is larger (atomic). *)

val gauge_value : gauge -> int

val observe : histogram -> int -> unit
(** Record one sample into the bucket of the smallest bound [>=] sample. *)

(** {1 Timing a stage} *)

type span
(** One timed stage: a handle on its aggregate cells (count / total /
    max wall-clock nanoseconds) and, optionally, its latency histogram. *)

val span : ?buckets:int array -> string -> span
(** [span name] registers (get-or-create) the span [name]. With
    [buckets], each duration is also observed — in {e microseconds} —
    into a histogram registered as [name ^ ".duration_us"] with those
    bounds, so percentile series can be derived from the [_bucket]
    counts exposed by {!Report.Prom_text}; as with {!histogram}, the
    first registration's bounds win. Like every handle, obtain it once
    at module initialisation. @raise Invalid_argument on a kind clash. *)

val time : span -> (unit -> 'a) -> 'a
(** [time s f] runs [f ()] and reads {!now_ns} once before and once
    after it. The duration is recorded even when [f] raises, into:
    - the aggregate cells of [s] (and its histogram), always;
    - a child span of the calling domain's current trace span, when
      {!Trace.should_emit} holds (a sampled-in trace or a capture);
    - the calling domain's {!Request} scope, for the stage spans
      {!Request.read}, {!Request.service} and {!Request.write}. *)

val now_ns : unit -> int
(** The one clock behind spans, trace events and request stages:
    wall-clock nanoseconds, so intervals line up with {!Rt_events}
    pauses and across domains. *)

(** {1 Snapshot / reset} *)

type hist_snapshot = {
  h_count : int;
  h_sum : int;
  h_buckets : (int option * int) list;
      (** (upper bound, samples); [None] is the +inf overflow bucket *)
}

type span_snapshot = { s_count : int; total_ns : int; max_ns : int }

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : (string * hist_snapshot) list;
  spans : (string * span_snapshot) list;
}
(** All sections sorted by metric name — deterministic apart from the
    timing fields of [spans]. *)

val find_counter : string -> int option
(** Current value of a registered counter, by name. *)

val find_gauge : string -> int option
(** Current value of a registered gauge, by name. *)

val find_histogram : string -> hist_snapshot option
(** Snapshot of a registered histogram, by name. *)

val reset : unit -> unit
(** Zero every registered metric (registrations are kept). A
    {!time} in flight across a [reset] records {e nothing}: its
    start time predates the reset, so folding it into the zeroed cell
    would fabricate pre-reset wall-clock. *)

val snapshot : unit -> snapshot

(** Structured, low-overhead execution tracing layered on the registry.

    A {e trace} is one top-level query — one {!Trace.with_trace} scope:
    a pipeline explain, a consistency check, a detector feed. Inside it,
    {!Obs.time} opens nested spans forming the trace tree, and
    {!Trace.emit} records typed point events (search prunes, STN
    pushes, simplex phases, ...). Events land in one process-wide
    bounded ring buffer: a writer claims a slot with a single
    fetch-and-add (lock-free, domain-safe); claims past the end are
    counted as drops, never blocked on.

    {b Cost.} With tracing disabled (the default), every trace site —
    {!emit}, [with_trace] and the trace half of {!Obs.time} — reduces to
    one atomic load and a branch: no allocation, no ring traffic. With
    tracing enabled, a sampled-out trace suppresses all its spans and
    events at the same single-load cost.

    {b Sampling.} [configure ~sample:n] records every [n]-th top-level
    trace (the 1st, [n+1]-th, ... by arrival order of [with_trace]),
    deterministically: sampling depends only on the trace sequence
    number, never on time or randomness.

    {b Determinism.} Trace/span IDs are dense sequence numbers reset by
    [configure]/[clear]; on a single domain the event order is the
    execution order, so two identical runs yield identical event
    streams apart from the [ts_ns] fields ({!Report.Trace_json} can
    strip those). Cross-domain interleaving in the ring is not
    deterministic.

    Renderers (JSONL, Chrome trace-event, folded flamegraph stacks)
    live in {!Report.Trace_json}; the event schema is documented in
    [docs/OBSERVABILITY.md]. *)
module Trace : sig
  type prune_reason = Bound | Inconsistent | Plausibility
  type evict_reason = Horizon | Capacity

  type kind =
    | Span_open of { name : string; parent : int }
    | Span_close of { name : string }
    | Bnb_node of { level : int }  (** a search node was branched upon *)
    | Bnb_prune of { reason : prune_reason; gap : int }
        (** subtree cut; [gap] = lower bound − incumbent for [Bound] *)
    | Bnb_incumbent of { cost : int }  (** new best leaf cost *)
    | Bnb_zero_stop of { top : int }  (** zero-cost incumbent ended the search *)
    | Stn_push of { depth : int; consistent : bool }
    | Stn_pop of { depth : int }
    | Simplex_phase of { phase : int }  (** phase 1/2 started *)
    | Simplex_outcome of { outcome : string }
    | Detector_admit of { live : int }  (** live partials after a feed *)
    | Detector_evict of { reason : evict_reason; count : int }
    | Detector_match of { count : int }
    | Stream_verdict of { verdict : string }
    | Mark of { label : string }  (** generic instant event *)

  type event = {
    ts_ns : int;  (** wall-clock, nanoseconds *)
    dom : int;  (** domain that emitted the event *)
    trace_id : int;  (** 1-based top-level trace sequence number *)
    span : int;
        (** enclosing span id (0 = trace root); for [Span_open]/[Span_close]
            the id of the span itself *)
    kind : kind;
  }

  val prune_reason_name : prune_reason -> string
  val evict_reason_name : evict_reason -> string

  val kind_name : kind -> string
  (** Dotted event-type name ([bnb.prune], [stn.push], ...). *)

  val kind_names : string list
  (** Every name {!kind_name} can return — the catalog the docs lint
      checks against [docs/OBSERVABILITY.md]. *)

  (** {1 Lifecycle} *)

  val default_capacity : int

  val configure : ?capacity:int -> ?sample:int -> unit -> unit
  (** Allocate a fresh ring of [capacity] events (default
      {!default_capacity}), set the sampling period (default 1 = every
      trace), zero all ids/counters and enable tracing.
      @raise Invalid_argument if [capacity < 1] or [sample < 1]. *)

  val enable : unit -> unit
  (** Re-enable after {!disable} (configures with defaults if never
      configured). The ring and ids are kept. *)

  val disable : unit -> unit
  val enabled_now : unit -> bool

  val clear : unit -> unit
  (** Drop all events and reset ids, keeping capacity, sampling and the
      enabled flag. No-op if never configured. *)

  val sampling : unit -> int
  val capacity : unit -> int

  (** {1 Hot path} *)

  val should_emit : unit -> bool
  (** True iff tracing is enabled {e and} the calling domain is inside a
      sampled-in trace. Instrumented sites guard with this before
      constructing a {!kind}, so a disabled tracer costs one atomic
      load and zero allocation. *)

  val emit : kind -> unit
  (** Record one event under the current span. Cheap no-op when
      {!should_emit} is false. *)

  val with_trace : string -> (unit -> 'a) -> 'a
  (** Top-level query scope: starts a new trace (subject to sampling)
      and opens its root span. Nested calls do {e not} start a new
      trace — they open a child span of the enclosing one, so
      instrumented layers compose safely. Exception-safe. *)

  (** {1 Per-request capture buffers}

      A buffer collects one scope's events privately — independent of
      the global ring, and working even when global tracing is
      {e disabled}: {!with_capture} makes {!should_emit} true for the
      scope, so the same instrumented sites feed it. This is the
      mechanism behind tail-based request capture ({!Obs.Request}):
      every request records into its own small buffer, and only slow /
      shed / errored ones are retained.

      A buffer has one writer: the domain running its capture scope.
      Appends are plain, not atomic, so no other domain may emit into
      it. *)

  type buffer

  val default_buffer_limit : int

  val buffer : ?limit:int -> unit -> buffer
  (** A fresh bounded buffer ([limit] defaults to
      {!default_buffer_limit}); appends past the limit are dropped and
      counted. @raise Invalid_argument if [limit < 1]. *)

  val with_capture : buffer -> string -> (unit -> 'a) -> 'a
  (** [with_capture buf name f] runs [f] as a new top-level trace scope
      whose events are appended to [buf] (always) and to the global
      ring (only if tracing is enabled and the trace samples in — ring
      sampling is unchanged). Opens a root span [name]; exception-safe;
      restores the caller's context on exit. *)

  val buffer_events : buffer -> event list
  (** Events in emission order. Call after the capture scope has closed. *)

  val buffer_dropped : buffer -> int
  (** Events lost to the buffer's limit. *)

  (** {1 Reading the ring} *)

  val events : unit -> event list
  (** Recorded events in claim order. Call after worker domains have
      been joined; slots claimed but not yet written are skipped. *)

  val emitted : unit -> int
  (** Events emitted since configure/clear, recorded or dropped. *)

  val recorded : unit -> int

  val dropped : unit -> int
  (** Exact count of events lost to ring overrun:
      [emitted () = recorded () + dropped ()]. *)
end

(** Leveled structured JSON logging.

    One JSON object per line, written through {!Report.Sink.log}
    (default: stderr, flushed per line), so a long-running service is
    debuggable without attaching a tracer and without polluting
    machine-readable stdout. Line shape:

    {v {"ts_ms":<int>,"level":"info","event":"<type>",<field>:<value>,...} v}

    Field order is fixed ([ts_ms], [level], [event], then the call's
    fields in order); keys and string values are JSON-escaped. Logging
    is disabled by default; the disabled hot path is one atomic load.
    Event-type names emitted by the engine are listed in
    {!Log.event_names} and documented in [docs/OBSERVABILITY.md]
    (enforced by the docs lint). *)
module Log : sig
  type level = Error | Warn | Info | Debug

  val level_name : level -> string
  val level_of_string : string -> level option
  (** Accepts ["error"], ["warn"]/["warning"], ["info"], ["debug"]. *)

  val set_level : level option -> unit
  (** [Some l] emits events at [l] and above (Error < Warn < Info <
      Debug); [None] disables logging entirely (the default). *)

  val level : unit -> level option

  val enabled : level -> bool
  (** Whether an event at this level would currently be emitted. *)

  type value = Str of string | Num of int | Flt of float | Bool of bool

  val write : string -> unit
  (** Write a raw line through the current log output hook (default:
      stderr, flushed per line). {!Report.Sink.log} is an alias. *)

  val set_sink : (string -> unit) -> unit
  (** Redirect log output, e.g. to a [Buffer] in tests or a file in a
      deployment. *)

  val reset_sink : unit -> unit
  (** Restore the default stderr output. *)

  val emit : level -> string -> (string * value) list -> unit
  (** [emit lvl event fields] writes one log line (cheap no-op when the
      level is suppressed). [event] is a dotted event-type name from
      {!event_names} for engine events; embedders may use their own
      names. Non-finite [Flt] values render as [null]. Also bumps the
      [log.lines] counter. *)

  val event_names : string list
  (** Every event type the engine itself emits — the catalog the docs
      lint checks against [docs/OBSERVABILITY.md]. *)
end

(** Runtime GC/domain profiling via OCaml 5's [Runtime_events] tracing,
    in self-monitoring mode: the process observes its own runtime ring.

    {!Rt_events.start} enables the runtime's event stream and spawns a
    poller domain that drains it on a fixed interval, decoding GC phase
    begin/end pairs into stop-the-world {e pause intervals} per domain.
    Each completed pause feeds:

    - the [runtime.gc.pause.duration_us] histogram (on
      {!latency_buckets});
    - split counters [runtime.gc.pause.minor] / [.major] / [.compact];
    - a per-domain high-water gauge [runtime.dom.<d>.gc.max_pause_us]
      (registered for ring domains [0 ..] {!Rt_events.max_gauge_domains}
      [- 1]; higher indices still feed everything else);
    - a bounded per-domain ring of recent pauses backing
      {!Rt_events.summaries} ([GET /debug/gc]) and
      {!Rt_events.pauses_between} (per-request GC attribution).

    Ring overwrites are counted exactly in [runtime.events.dropped];
    events the {e runtime's} ring lost before the poller could read
    them are counted in [runtime.events.lost].

    Nested phases (a minor collection inside a major slice) record one
    pause, classed by the outermost phase — intervals never
    double-count. Timestamps from the runtime are monotonic; a
    calibration step in [start] anchors them to the wall clock so pause
    intervals are directly comparable with {!Trace} span timestamps.

    When profiling is off this module costs nothing on the request
    path: {!Rt_events.active} is a single atomic load. *)
module Rt_events : sig
  val max_gauge_domains : int
  (** Number of pre-registered [runtime.dom.<d>.gc.max_pause_us]
      gauges (domains [0 .. max_gauge_domains - 1]). *)

  type pause_class = Minor | Major | Compact

  val pause_class_name : pause_class -> string

  type pause = {
    p_class : pause_class;
    p_start_ns : int;  (** wall-clock nanoseconds *)
    p_end_ns : int;
  }

  (** {1 Lifecycle} *)

  val default_ring_capacity : int

  val start : ?interval_s:float -> ?ring_capacity:int -> unit -> unit
  (** Enable the runtime event stream and spawn the poller domain
      ([interval_s] poll period, default 2ms; [ring_capacity] recent
      pauses retained per domain, default {!default_ring_capacity}).
      Idempotent while running. Decoder state from a previous
      start/stop cycle is discarded; the cumulative metrics are kept.
      @raise Invalid_argument if [interval_s <= 0] or
      [ring_capacity < 1]. *)

  val stop : unit -> unit
  (** Join the poller after a final drain and pause the runtime's event
      stream. Decoded pause state remains queryable. Idempotent. *)

  val running : unit -> bool

  val active : unit -> bool
  (** Whether pause data exists to attribute against: running, or
      stopped with calibrated pauses still retained. One atomic load —
      the request path's guard. *)

  val poll_now : unit -> int
  (** Drain the runtime ring immediately on the calling thread (the
      poller normally does this on its interval). Returns the number of
      events consumed; 0 when not started or when a concurrent drain is
      in flight. *)

  (** {1 Queries} *)

  type dom_summary = {
    d_dom : int;  (** runtime ring domain index *)
    d_pauses : int;  (** pauses recorded since start *)
    d_minor : int;
    d_major : int;
    d_compact : int;
    d_max_pause_us : int;
    d_dropped : int;  (** pauses evicted from the recent-pause ring *)
    d_recent : pause list;  (** oldest first, wall-clock ns *)
  }

  val summaries : unit -> dom_summary list
  (** Per-domain pause summaries, sorted by domain index — the payload
      behind [GET /debug/gc]. *)

  val pauses_between : t0_ns:int -> t1_ns:int -> unit -> (int * int) list
  (** All recorded pauses (any domain) intersecting the wall-clock
      window, clipped to it, merged into a sorted {e disjoint} interval
      list — concurrent multi-domain pauses collapse, so overlap sums
      never double-count. *)

  val overlap_us : (int * int) list -> t0_ns:int -> t1_ns:int -> int
  (** Microseconds of the disjoint interval list (as returned by
      {!pauses_between}) falling inside [t0_ns, t1_ns] — per-stage GC
      attribution. *)

  (** {1 Test hooks} *)

  val inject_for_test :
    dom:int -> cls:pause_class -> t0_ns:int -> t1_ns:int -> unit
  (** Push a synthetic pause (wall-clock ns) through the real recording
      path: ring eviction, split counters, histogram, gauges. *)

  val reset_for_test : ?ring_capacity:int -> unit -> unit
  (** Forget decoded pauses and the clock calibration, optionally
      resizing the per-domain recent-pause rings (ignored when [< 1]).
      The cumulative metric cells are unaffected. *)
end

(** Per-request observability for the serving stack: unique request
    ids, decomposed latency accounting, a structured access-log line
    per request, and tail-based trace retention.

    {!with_scope} wraps one HTTP request turn. It mints a request id,
    and — when capture is enabled via {!configure} — runs the turn
    inside a {!Trace.with_capture} scope so every span and event the
    request touches (the worker feeds its own batch to the shards, on
    its own domain) lands in a private per-request buffer. When the
    scope closes, an access-log line is emitted ({!Log} event
    [serve.access]), and the request is retained in a bounded ring if
    it was slow (service + write time over {!threshold_us}), shed, or
    errored (status >= 400) — the ring backs [GET /debug/slow]. The
    access fields are built only when the log level admits the line, and
    the captured events are collected only for a retained request.

    Capture is {e off} by default and costs nothing disabled; the
    access log follows the global {!Log} level. *)
module Request : sig
  (** {1 Configuration} *)

  val configure : ?threshold_us:int -> ?capacity:int -> unit -> unit
  (** Enable tail capture. [threshold_us] (default 100_000 = 100ms) is
      the service+write retention threshold; [capacity] (default
      {!default_capacity}) resizes (and clears) the retained ring.
      [capacity <= 0] disables capture instead.
      @raise Invalid_argument if [threshold_us < 0]. *)

  val disable : unit -> unit
  val threshold_us : unit -> int
  val capacity : unit -> int
  val default_capacity : int

  val set_access_level : Log.level option -> unit
  (** Level the per-request [serve.access] log line is emitted at
      (default [Some Info]); [None] silences access logging without
      touching the global log level. *)

  val access_level : unit -> Log.level option

  (** {1 Request scopes} *)

  type scope

  val with_scope : (scope -> 'a) -> 'a
  (** Run one request turn. The scope carries the request id and the
      mutable timing/route fields the server fills in as the turn
      progresses; on exit (normal or raised) the access-log line is
      emitted and retention is decided. Single-writer: only the domain
      running the turn may call the setters. *)

  val id : scope -> string

  val current_id : unit -> string option
  (** The id of the scope the calling domain is currently inside, if
      any — lets verdict renderers stamp the request id without
      threading the scope through every call. *)

  val set_route : scope -> meth:string -> path:string -> unit
  val set_status : scope -> int -> unit
  val set_bytes_in : scope -> int -> unit
  val set_bytes_out : scope -> int -> unit
  val set_keep_alive : scope -> bool -> unit

  val note_shard : int -> unit
  (** Record that the current request's batch routes to this shard
      (deduplicated; no-op outside a scope). Called by the shard pool
      once per involved shard before admission, so a shed batch reports
      its shards too, from the domain running the turn. *)

  val read : span
  val service : span
  val write : span
  (** The turn's stages — [serve.request.read], [serve.request.service]
      (the handler) and [serve.request.write], each with a [.duration_us]
      histogram on {!latency_buckets}. {!time} them on the domain running
      the turn and each duration also lands in its scope. *)

  val abandon : scope -> unit
  (** Mark the scope as a non-request (a keep-alive connection that
      closed cleanly between requests): no access log, no retention. *)

  (** {1 Retained tail} *)

  type info = {
    r_id : string;
    r_meth : string;
    r_path : string;
    r_status : int;
    r_bytes_in : int;
    r_bytes_out : int;
    r_shed : bool;  (** status 429 *)
    r_keep_alive : bool;
    r_start_ms : int;  (** wall-clock request start, milliseconds *)
    r_read_us : int;
    r_service_us : int;
    r_write_us : int;
    r_total_us : int;
    r_shards : int list;
        (** shard indices this request's ingest lines were routed to,
            ascending, deduplicated (see {!note_shard}) *)
    r_gc_pauses : (int * int) list;
        (** merged GC pause intervals (wall-clock ns,
            {!Rt_events.pauses_between}) intersecting the request
            window, captured at completion — span overlaps stay
            computable after retention *)
    r_gc_overlap_us : int;  (** GC pause time inside the request window *)
    r_gc_read_us : int;  (** ... inside each stage window *)
    r_gc_service_us : int;
    r_gc_write_us : int;
    r_events : Trace.event list;  (** the request's captured span tree *)
    r_events_dropped : int;
  }

  val retained : unit -> info list
  (** Retained requests, newest first. *)

  val clear_retained : unit -> unit
end

(** Process-level runtime gauges: OCaml GC statistics, process uptime,
    and {!Trace} ring occupancy. Registered (at zero) when the library
    initialises; {!Runtime.refresh} loads current values — a scrape
    endpoint calls it right before {!snapshot}, so the gauges are
    point-in-time at each scrape rather than continuously maintained.
    Uses [Gc.quick_stat] (no major-heap walk), so refresh is cheap. *)
module Runtime : sig
  val saturating_int_of_float : float -> int
  (** [int_of_float] clamped to [min_int]/[max_int] (NaN maps to 0):
      cumulative GC word counts on long-lived processes can exceed the
      [int] range, where raw [int_of_float] is undefined. *)

  val refresh : unit -> unit
  (** Update the [runtime.*] and [trace.*] gauges: GC counters and word
      counts from [Gc.quick_stat] ([runtime.gc.minor_collections],
      [runtime.gc.major_collections], [runtime.gc.compactions],
      [runtime.gc.heap_words], [runtime.gc.top_heap_words],
      [runtime.gc.minor_words], [runtime.gc.promoted_words],
      [runtime.gc.major_words]), [runtime.uptime_ms] since library
      initialisation, and the trace ring's [trace.emitted],
      [trace.recorded], [trace.dropped], [trace.capacity]. *)
end
