(** Where human-readable experiment output goes. Library code must not write
    to stdout directly (enforced by whynot-check's no-stdout rule); modules
    that render tables route them through this sink, which defaults to stdout
    and can be redirected by embedders and tests.

    A second, independent channel carries structured log lines ({!Obs.Log});
    it defaults to {e stderr} so logs never interleave with machine-readable
    stdout output (JSON reports, JSONL match verdicts). *)

val print : string -> unit
(** Write through the current sink (default: stdout). *)

val set : (string -> unit) -> unit
(** Redirect the sink, e.g. to a [Buffer] in tests. *)

val reset : unit -> unit
(** Restore the default stdout sink. *)

val log : string -> unit
(** Write one structured log line through the log channel (default:
    stderr, flushed per line). *)
