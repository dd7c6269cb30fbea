(** Prometheus text exposition (format 0.0.4) rendering of {!Obs} snapshots.

    Mapping from the dotted registry names to exposition names:
    - counters, gauges, histograms: [mangle name] (dots and any other
      non-alphanumeric characters become underscores, prefixed with the
      [whynot_] namespace), e.g. [detector.matches] → [whynot_detector_matches];
    - histograms additionally emit cumulative [_bucket{le="..."}] series, a
      [_sum] and a [_count], with the implicit +inf bucket rendered as
      [le="+Inf"] and always equal to [_count];
    - spans render as a summary [mangle name ^ "_seconds"] ([_sum]/[_count],
      nanoseconds converted to seconds) plus a [mangle name ^ "_max_seconds"]
      gauge for the running maximum.

    The full name mapping for the current catalog is tabulated in
    [docs/OBSERVABILITY.md]. *)

val default_namespace : string
(** ["whynot"]. *)

val mangle : ?namespace:string -> string -> string
(** Exposition base name for a dotted registry name: characters outside
    [\[A-Za-z0-9_\]] become ['_'], prefixed with [namespace ^ "_"] (pass
    [~namespace:""] to suppress the prefix). Injective on the current
    catalog — enforced by the exposition conformance test. *)

val span_suffix : string
(** ["_seconds"] — appended to [mangle name] for span summaries. *)

val span_max_suffix : string
(** ["_max_seconds"] — appended to [mangle name] for span maxima gauges. *)

val escape_help : string -> string
(** HELP-line payload escaping: backslash → [\\], newline → [\n]. *)

val help_of_markdown : string -> string -> string option
(** [help_of_markdown docs name] extracts the meaning column for [name] from
    a markdown catalog table (rows shaped [| `name` | kind | meaning |], as
    in [docs/OBSERVABILITY.md]). First matching row wins. Apply it to
    [docs] once and keep the closure: the tables are parsed on its first
    lookup, and every later lookup is a hash-table probe. The closure is
    safe to call from several domains at once. *)

val render :
  ?namespace:string ->
  ?timers:bool ->
  ?help:(string -> string option) ->
  Obs.snapshot ->
  string
(** Render a snapshot to exposition text. Every series is preceded by
    [# HELP] and [# TYPE] lines; [help] supplies the HELP payload keyed by
    the {e dotted} source name (default: the dotted name itself, so the
    source metric is always recoverable from the output). [~timers:false]
    omits the span summaries, making the output deterministic for a given
    workload. *)

val parse_values : string -> ((string * float) list, string) result
(** Parse exposition text back to [(sample-key, value)] pairs in document
    order, where the sample key includes any label set verbatim (e.g.
    [whynot_lp_iterations_bucket{le="5"}]). Comment and blank lines are
    skipped; the first malformed sample line yields [Error]. Used by the
    scrape tests and the bench smoke check. *)
