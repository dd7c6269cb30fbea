(** Renderers for {!Obs.Trace} event streams.

    Three formats over the same events:
    - [Jsonl] — one JSON object per line per event; [~timings:false]
      strips the [ts_ns] field, making the output byte-identical across
      identical runs (asserted in tests).
    - [Chrome] — the Chrome trace-event JSON array; load the file in
      [chrome://tracing] or Perfetto. Spans become B/E duration events,
      point events become thread-scoped instants; [pid] is the trace id,
      [tid] the emitting domain.
    - [Folded] — folded flamegraph stacks ("a;b;c <self-ns>" lines),
      aggregated across traces; feed to [flamegraph.pl] or any folded
      renderer. Weights are span {e self} times in nanoseconds.

    The schemas are documented in [docs/OBSERVABILITY.md]. *)

type format = Jsonl | Chrome | Folded

val format_of_string : string -> format option

val jsonl : ?timings:bool -> Obs.Trace.event list -> string
(** [timings] defaults to [true]. *)

val chrome : Obs.Trace.event list -> string
(** Timestamps are microseconds relative to the first event. *)

val folded : Obs.Trace.event list -> string

val render : ?timings:bool -> format -> Obs.Trace.event list -> string
(** [timings] only affects [Jsonl]. *)

val slow_json : Obs.Request.info list -> string
(** The [GET /debug/slow] payload: a JSON object
    [{"requests":[...]}] with, per retained request, its id / route /
    status / shed and keep-alive flags / byte counts, the shard indices
    its batch lines were routed to, the decomposed stage timings in
    microseconds, the GC pause overlap per stage ([gc_us], from
    {!Obs.Rt_events} attribution — all zero when profiling is off), and
    a span-tree summary of the captured trace (one row per matched
    open/close pair: name, span and parent ids, start offset, duration
    and GC overlap in microseconds). Raw events remain exportable
    through {!render} in any {!format}. *)

val write_file : ?timings:bool -> format:format -> string -> Obs.Trace.event list -> unit
