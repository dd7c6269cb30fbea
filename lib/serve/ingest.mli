(** Line-delimited event ingest: the CSV stream format
    ([event,timestamp[,tag[,key]]]) shared by the [detect] subcommand, the
    [serve] ingest endpoint and the stdin feed. Parsing is separated from
    feeding so every entry point rejects malformed input identically.

    The optional fourth column is a {e partition key}: sharded serving
    routes every key to one detector shard, and events with different keys
    never combine into one match (see {!Shard} and [docs/SERVING.md]). A
    missing or empty key means the keyless stream — all such events share
    one implicit key (and land on shard 0, preserving today's single-
    detector behavior bit for bit). [whynot detect] ignores keys: it runs
    one detector over the interleaved stream.

    Fields follow the RFC-4180 quoting rules of {!Events.Csv_io}: a tag
    (or event name, or key) containing commas or quotes may be sent
    quoted, e.g. [order,7,"batch 3, retry",acct42]. Unquoted fields are
    trimmed; quoted fields are taken verbatim. *)

type error = { line : int; reason : string }

type keyed = {
  instance : Cep.Detector.instance;
  key : string;  (** [""] for the keyless stream *)
}

val error_to_string : error -> string
(** ["line N: <reason>"]. *)

val header : string
(** The canonical CSV header ([event,timestamp,tag]); skipped wherever it
    appears (the serve ingest numbers lines across requests, so a second
    request may legitimately start with the header again). *)

val keyed_header : string
(** The four-column header ([event,timestamp,tag,key]); skipped like
    {!header}. *)

val parse_line : lineno:int -> string -> (keyed option, error) result
(** Parse one stream line with the scanner below, then cut its fields out
    as strings. [Ok None]
    for blank lines and for either header. A missing or empty tag
    defaults to ["#<lineno>"]; a missing key defaults to [""]. [lineno]
    is 1-based. *)

val parse_lines : string list -> (keyed list, error) result
(** All-or-nothing {!parse_line} over a document, numbering from 1. *)

(** {1 The scanner}

    One line is scanned in place: it is trimmed, compared with the two
    headers, and split on its commas by index, each field trimmed. A line
    that holds a quote goes through {!Events.Csv_io.split_line} instead,
    and a timestamp that is not plain decimal digits through
    [int_of_string_opt], so quoting and integer forms keep one
    implementation each. The verdicts are those of the grammar above,
    checked in this order: the field count, the timestamp, an empty event
    name. {!parse_line} and {!scan_body} run the same scanner; a plain
    line costs it no allocation. *)

(** {1 A request body}

    [POST /ingest] scans its body once into a row of integers per line —
    the kind, the timestamp and the ranges of the key and tag — and the
    shard pool reads the rows. Strings are cut from the body only where a
    value is kept: a tag for a relevant event, a new key, the event name
    of a rejected line. *)

type batch = private {
  body : string;
  base : int;  (** the line number of the body's first line *)
  lines : int;  (** lines in the body: its newlines + 1 *)
  rows : int array;  (** read through the functions below *)
  events : int;  (** lines that hold an event *)
}

val scan_body :
  Cep.Detector.template ->
  string ->
  reserve:(int -> int) ->
  on_error:(lineno:int -> string -> unit) ->
  batch
(** Scan every line of the body, resolving each event name to its
    {!Cep.Detector.type_index}; then number the lines from [reserve n],
    called once with the body's line count [n], and call [on_error] on
    each rejected line in order. The rows live in scratch that the
    calling domain reuses: the batch is valid until that domain's next
    [scan_body]. The domain keeps rows for at most {!kept_lines} lines;
    a longer body scans into rows of its own. *)

val kept_lines : int
(** The most lines whose rows a domain keeps from one body to the next. *)

val scan_line :
  Cep.Detector.template ->
  string ->
  lineno:int ->
  on_error:(lineno:int -> string -> unit) ->
  batch
(** A batch of one line, the whole string, as {!parse_line} reads it. *)

val skip : int
(** {!kind} of a blank or header line. *)

val bad : int
(** {!kind} of a rejected line. *)

val kind : batch -> int -> int
(** Line [i]'s kind: {!skip}, {!bad}, or an event's type index ([-1]
    when the query ignores its type). *)

val timestamp : batch -> int -> int

val key_pos : batch -> int -> int
(** The key of event line [i] is [body.[key_pos b i] .. body.[key_stop b
    i - 1]]; [-1] when the line was quoted (use {!key}). *)

val key_stop : batch -> int -> int

val key : batch -> int -> string
(** Event line [i]'s partition key, [""] when absent. *)

val tag : batch -> int -> string
(** Event line [i]'s tag, ["#<lineno>"] when absent or empty. *)

val event : batch -> int -> string
(** Event line [i]'s event name. *)

val reason : batch -> int -> string
(** Why line [i] (of kind {!bad}) was rejected. *)
